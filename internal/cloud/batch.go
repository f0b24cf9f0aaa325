package cloud

// Batched submission: POST /api/v1/analyses:batch accepts up to MaxBatchItems
// captures in one request and answers a per-item status envelope. A device
// fleet's spool flushes (phone.OfflineQueue) and bulk re-uploads pay one HTTP
// round trip, one auth resolution, and one admission decision per batch
// instead of per capture, while every capture keeps its own exactly-once
// guarantee: each item carries (or derives) its own idempotency key and rides
// the same dedup index as a single submission.
//
// Admission rules (DESIGN.md §10):
//   - The batch is weighed by its item count: the per-client rate limiter
//     charges one token per item up front, and an empty bucket rejects the
//     whole batch with 429 rate_limited before any item runs.
//   - Load shedding treats a batch as bulk work: it is admitted or shed as a
//     unit on the non-priority lane (single sync submits keep their
//     syncShedFactor priority), so batches degrade before interactive use.
//   - One tenant per batch: every item resolves to a single subject (the
//     item's owner field, defaulting to the caller's subject); a batch whose
//     items span two tenants is rejected whole with 400 invalid_request, and
//     a subject-scoped key naming a foreign tenant gets 403.
//   - Item failures are isolated: a payload that fails decode or analysis
//     (even by panicking) reports its error in its own result slot and the
//     remaining items still run.

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"medsen/internal/audit"
	"medsen/internal/auth"
)

// MaxBatchItems caps one batch request. Batches beyond it are rejected with
// 413 — the client splits, exactly as it would for an oversized body.
const MaxBatchItems = 64

// BatchItem is one capture inside a batch submission.
type BatchItem struct {
	// IdempotencyKey is the item's dedup key; empty derives the payload's
	// content digest, exactly as a keyless single submission would.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
	// Owner, when non-empty, attributes the item to a tenant subject
	// (clinic/admin bulk uploads on behalf of one patient). Defaults to the
	// caller's own subject. All items of a batch must resolve to the same
	// tenant.
	Owner string `json:"owner,omitempty"`
	// Payload is the zip-compressed capture (base64 in JSON).
	Payload []byte `json:"payload"`
}

// BatchRequest is the body of POST /api/v1/analyses:batch.
type BatchRequest struct {
	Items []BatchItem `json:"items"`
}

// BatchItemError is the error detail of one failed batch item, mirroring the
// single-request error envelope codes.
type BatchItemError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// BatchItemResult is one item's outcome. Status carries the HTTP status the
// item would have received as a single submission (201 stored, 200 deduped to
// an existing analysis, 4xx/5xx failed).
type BatchItemResult struct {
	Index  int             `json:"index"`
	Status int             `json:"status"`
	ID     string          `json:"id,omitempty"`
	Report *Report         `json:"report,omitempty"`
	Error  *BatchItemError `json:"error,omitempty"`
}

// OK reports whether the item was stored or deduplicated to a stored
// analysis.
func (r BatchItemResult) OK() bool { return r.Status < 300 }

// BatchResponse is the per-item status envelope of a batch submission. The
// HTTP status of the response itself is 200 whenever the batch was admitted;
// per-item verdicts live in Results.
type BatchResponse struct {
	Results   []BatchItemResult `json:"results"`
	Succeeded int               `json:"succeeded"`
	Failed    int               `json:"failed"`
}

// scopedBatchKey namespaces an item's capture key by its resolved tenant,
// producing the same scoped key a single submission by that tenant's own key
// would, so batch and single submissions of one capture dedup together.
func scopedBatchKey(owner, key string) string {
	if owner == "" {
		return key
	}
	return "subj:" + owner + "|" + key
}

// rejectBatch counts and answers a whole-batch rejection.
func (s *Service) rejectBatch(w http.ResponseWriter, status int, code string, err error) {
	s.mu.Lock()
	s.metrics.BatchRejected++
	s.mu.Unlock()
	writeError(w, status, code, err)
}

func (s *Service) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	if !s.admitMutation(w) {
		return
	}
	p := s.principal(r)
	if !s.authorize(w, r, auth.ActionCreate, auth.Object{Type: auth.ObjectAnalysis, Owner: p.Subject},
		"analysis.batch", "") {
		return
	}
	// The whole body is read before decoding (DESIGN.md §10b), so a body
	// over the limit is a 413 even when its JSON value ends before the limit.
	r.Body = http.MaxBytesReader(w, r.Body, s.uploadLimit)
	var body bytes.Buffer
	_, err := body.ReadFrom(r.Body)
	var req BatchRequest
	if err == nil {
		req, err = decodeBatchRequest(body.Bytes())
	}
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.rejectBatch(w, http.StatusRequestEntityTooLarge, CodePayloadTooLarge,
				fmt.Errorf("batch exceeds the %d byte limit", tooBig.Limit))
			return
		}
		s.rejectBatch(w, http.StatusBadRequest, CodeInvalidRequest, fmt.Errorf("decoding batch: %w", err))
		return
	}
	n := len(req.Items)
	if n == 0 {
		s.rejectBatch(w, http.StatusBadRequest, CodeInvalidRequest, errors.New("batch has no items"))
		return
	}
	if n > MaxBatchItems {
		s.rejectBatch(w, http.StatusRequestEntityTooLarge, CodePayloadTooLarge,
			fmt.Errorf("batch has %d items, limit %d", n, MaxBatchItems))
		return
	}

	// Single-tenant rule: resolve every item's subject before any item runs,
	// so a mixed batch is rejected whole rather than half-applied.
	owner := req.Items[0].Owner
	if owner == "" {
		owner = p.Subject
	}
	for i := range req.Items {
		itemOwner := req.Items[i].Owner
		if itemOwner == "" {
			itemOwner = p.Subject
		}
		if itemOwner != owner {
			s.rejectBatch(w, http.StatusBadRequest, CodeInvalidRequest,
				fmt.Errorf("mixed-tenant batch: item %d resolves to subject %q, batch to %q", i, itemOwner, owner))
			return
		}
	}
	// A subject-scoped key may only batch for itself; clinic/admin/anonymous
	// may act for any single tenant.
	if p.Subject != "" && owner != p.Subject {
		s.mu.Lock()
		s.metrics.BatchRejected++
		s.metrics.PermissionDenied++
		s.mu.Unlock()
		s.auditEvent(p, "analysis.batch", "", audit.OutcomeDenied,
			fmt.Sprintf("batch for foreign subject %q", owner))
		writeError(w, http.StatusForbidden, CodePermissionDenied,
			fmt.Errorf("key subject %q may not submit for subject %q", p.Subject, owner))
		return
	}

	// Admission: the batch weighs its item count against the rate limiter,
	// and rides the non-priority shedding lane as a unit.
	if s.limiter != nil {
		ok, wait := s.limiter.allowN(s.clientKey(r), n)
		if !ok {
			s.mu.Lock()
			s.metrics.RateLimited++
			s.metrics.BatchRejected++
			s.mu.Unlock()
			writeRetryAfter(w, wait)
			writeError(w, http.StatusTooManyRequests, CodeRateLimited,
				fmt.Errorf("batch of %d exceeds the per-client submit budget", n))
			return
		}
	}
	s.mu.Lock()
	shedAfter, shed := s.shedLocked(false)
	if shed {
		s.metrics.BatchRejected++
	}
	s.mu.Unlock()
	if shed {
		writeRetryAfter(w, shedAfter)
		writeError(w, http.StatusTooManyRequests, CodeOverloaded,
			errors.New("estimated queue wait exceeds the shedding limit; retry later"))
		return
	}

	resp := BatchResponse{Results: make([]BatchItemResult, n)}
	for i := range req.Items {
		res := s.submitBatchItem(i, req.Items[i], owner, p)
		if res.OK() {
			resp.Succeeded++
		} else {
			resp.Failed++
		}
		resp.Results[i] = res
	}
	s.mu.Lock()
	s.metrics.BatchRequests++
	s.metrics.BatchItems += int64(n)
	s.metrics.BatchItemErrors += int64(resp.Failed)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

// decodeBatchRequest decodes a batch body. The shape Client.SubmitBatch
// writes is parsed directly: one "items" key, item objects keyed exactly
// "idempotency_key", "owner" and "payload" (each at most once), plain
// printable-ASCII key and owner strings, and payloads that base64-decode
// straight from the bytes between their quotes. That skips encoding/json's
// per-byte scan of the base64, which dominated the batch handler. Anything
// else — escapes, case-folded or unknown keys, duplicates, null, malformed
// input — goes to encoding/json, so every error and every lenient case is
// exactly encoding/json's. The direct path never fails on its own, and
// accepts only bodies encoding/json decodes to the same value
// (FuzzDecodeBatchRequest). Like Decoder.Decode, both ignore bytes after the
// top-level object.
func decodeBatchRequest(body []byte) (BatchRequest, error) {
	if req, ok := decodeSubmitBatchShape(body); ok {
		return req, nil
	}
	var req BatchRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	return req, err
}

// decodeSubmitBatchShape is decodeBatchRequest's direct path. It reports
// false for any body outside the shape it accepts.
func decodeSubmitBatchShape(body []byte) (BatchRequest, bool) {
	s := batchScanner{b: body}
	if !s.consume('{') {
		return BatchRequest{}, false
	}
	if key, ok := s.plain(); !ok || string(key) != "items" || !s.consume(':') || !s.consume('[') {
		return BatchRequest{}, false
	}
	// A non-nil empty slice, as encoding/json decodes "items":[].
	items := []BatchItem{}
	if !s.consume(']') {
		for {
			it, ok := s.item()
			if !ok {
				return BatchRequest{}, false
			}
			items = append(items, it)
			if s.consume(']') {
				break
			}
			if !s.consume(',') {
				return BatchRequest{}, false
			}
		}
	}
	if !s.consume('}') {
		return BatchRequest{}, false
	}
	return BatchRequest{Items: items}, true
}

// batchScanner walks a batch body for decodeSubmitBatchShape. Every method
// reports failure rather than an error: a declined body is encoding/json's
// to judge.
type batchScanner struct {
	b []byte
	i int
}

// consume skips JSON whitespace and then consumes c, reporting whether c was
// next.
func (s *batchScanner) consume(c byte) bool {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
			continue
		case c:
			s.i++
			return true
		}
		return false
	}
	return false
}

// plain consumes a string of printable ASCII other than '\\' and '"', which
// needs no unescaping, and returns its bytes.
func (s *batchScanner) plain() ([]byte, bool) {
	if !s.consume('"') {
		return nil, false
	}
	for start := s.i; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// plainString is plain as a string.
func (s *batchScanner) plainString() (string, bool) {
	b, ok := s.plain()
	return string(b), ok
}

// payload consumes a string that base64.StdEncoding decodes from its raw
// bytes. Decoding succeeds only when every byte is in the base64 alphabet,
// '=' or CR/LF; base64 skips CR and LF, which JSON forbids raw, so those are
// declined. What remains needs no unescaping, so the bytes are what
// encoding/json would hand to the same decoder.
func (s *batchScanner) payload() ([]byte, bool) {
	if !s.consume('"') {
		return nil, false
	}
	end := bytes.IndexByte(s.b[s.i:], '"')
	if end < 0 {
		return nil, false
	}
	raw := s.b[s.i : s.i+end]
	if bytes.IndexByte(raw, '\r') >= 0 || bytes.IndexByte(raw, '\n') >= 0 {
		return nil, false
	}
	out := make([]byte, base64.StdEncoding.DecodedLen(len(raw)))
	n, err := base64.StdEncoding.Decode(out, raw)
	if err != nil {
		return nil, false
	}
	s.i += end + 1
	return out[:n], true
}

// item consumes one item object.
func (s *batchScanner) item() (BatchItem, bool) {
	var it BatchItem
	if !s.consume('{') {
		return it, false
	}
	if s.consume('}') {
		return it, true
	}
	// Each key at most once: encoding/json's handling of a repeated key is
	// its own to reproduce.
	var seen [3]bool
	for {
		key, ok := s.plain()
		if !ok || !s.consume(':') {
			return it, false
		}
		var field int
		switch string(key) {
		case "idempotency_key":
			it.IdempotencyKey, ok = s.plainString()
		case "owner":
			field = 1
			it.Owner, ok = s.plainString()
		case "payload":
			field = 2
			it.Payload, ok = s.payload()
		default:
			return it, false
		}
		if !ok || seen[field] {
			return it, false
		}
		seen[field] = true
		if s.consume('}') {
			return it, true
		}
		if !s.consume(',') {
			return it, false
		}
	}
}

// batchItemError builds a failed item result.
func batchItemError(index, status int, code string, err error) BatchItemResult {
	return BatchItemResult{
		Index:  index,
		Status: status,
		Error:  &BatchItemError{Code: code, Message: err.Error()},
	}
}

// submitBatchItem runs one item through the synchronous submission machinery
// — claim, analyze, store, complete — reporting the outcome in the item's
// result slot instead of the response writer. Items run sequentially, so an
// intra-batch duplicate sees its sibling's completed claim and dedups to the
// sibling's analysis.
func (s *Service) submitBatchItem(index int, item BatchItem, owner string, p auth.Principal) BatchItemResult {
	if len(item.Payload) == 0 {
		return batchItemError(index, http.StatusBadRequest, CodeInvalidRequest,
			errors.New("item has no payload"))
	}
	key, err := captureKeyFor(item.IdempotencyKey, item.Payload)
	if err != nil {
		return batchItemError(index, http.StatusBadRequest, CodeInvalidRequest, err)
	}
	key = scopedBatchKey(owner, key)

	s.mu.Lock()
	analysisID, job, outcome := s.claimCaptureLocked(key)
	var report Report
	if outcome == claimDone {
		report = s.analyses[analysisID].Report
	}
	s.mu.Unlock()
	switch outcome {
	case claimDone:
		s.auditEvent(p, "analysis.batch_item", analysisID, audit.OutcomeOK, "dedup")
		return BatchItemResult{Index: index, Status: http.StatusOK, ID: analysisID, Report: &report}
	case claimInFlight, claimJob:
		err := errors.New("an identical capture is already being analyzed; retry for its result")
		if job.ID != "" {
			err = fmt.Errorf("an identical capture is owned by job %s", job.ID)
		}
		return batchItemError(index, http.StatusConflict, CodeDuplicateInFlight, err)
	}

	report, code, err := s.runAnalysis(item.Payload)
	if err != nil {
		s.mu.Lock()
		s.releaseCaptureLocked(key)
		s.metrics.UploadErrors++
		s.mu.Unlock()
		status := http.StatusInternalServerError
		switch code {
		case CodeInvalidRequest:
			status = http.StatusBadRequest
		case CodeUnprocessable:
			status = http.StatusUnprocessableEntity
		}
		s.auditEvent(p, "analysis.batch_item", "", audit.OutcomeError, code)
		return batchItemError(index, status, code, err)
	}
	s.mu.Lock()
	id, err := s.storeReportLocked(report, owner)
	if err == nil {
		s.completeCaptureLocked(key, id)
	} else {
		s.releaseCaptureLocked(key)
	}
	s.mu.Unlock()
	if err != nil {
		s.auditEvent(p, "analysis.batch_item", "", audit.OutcomeError, CodeInternal)
		return batchItemError(index, http.StatusInternalServerError, CodeInternal, err)
	}
	s.auditEvent(p, "analysis.batch_item", id, audit.OutcomeOK, "")
	return BatchItemResult{Index: index, Status: http.StatusCreated, ID: id, Report: &report}
}
