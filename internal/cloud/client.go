package cloud

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"medsen/internal/audit"
	"medsen/internal/beads"
	"medsen/internal/csvio"
	"medsen/internal/lockin"
)

// Client is the device-side HTTP client for the analysis service. The phone
// relay uses it to upload measurements; it never carries key material.
type Client struct {
	// BaseURL is the service root, e.g. "http://analysis.example.org".
	BaseURL string
	// HTTPClient may be overridden for tests or custom transports; nil
	// uses http.DefaultClient.
	HTTPClient *http.Client
	// Retry, when non-nil, retries safe requests on transport errors, 5xx,
	// and 429 responses with exponential backoff, honoring the server's
	// Retry-After when it is longer. Safe means GET — or a submission
	// carrying an idempotency key, which the service dedups, so re-sending
	// it cannot store the capture twice. Keyless mutating requests are
	// never retried; the phone's OfflineQueue owns that failure mode.
	Retry *RetryPolicy
	// AttemptTimeout bounds each individual HTTP attempt (0 = none). A
	// stalled connection then fails that one attempt — and the retry
	// policy gets a chance — instead of pinning the caller until its
	// context expires.
	AttemptTimeout time.Duration
	// ClientID, when non-empty, is sent as X-Client-Id on every request —
	// informational device identity for logs; the service's rate limiter
	// keys on the authenticated API key, not this header.
	ClientID string
	// APIKey, when non-empty, is sent as "Authorization: Bearer" on every
	// request — live submits, async polls, breaker flushes, and spool
	// replays alike, since they all funnel through the same request path.
	// Required when the service runs with authentication enabled.
	APIKey string
}

// RetryPolicy bounds safe-request retries.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (≥ 1).
	MaxAttempts int
	// BaseDelay is the first backoff; each retry doubles it.
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth (0 → uncapped).
	MaxDelay time.Duration
	// Jitter is the fraction of each delay added uniformly at random on
	// top, de-synchronizing retries across a device fleet. 0 applies the
	// default of 0.2; a negative value disables jitter entirely.
	Jitter float64
	// MaxElapsed caps the total wall-clock time spent retrying (0 = no
	// cap). Once the budget is spent, the loop stops before the next
	// backoff sleep and returns the last error. SubmitAndPoll applies the
	// same budget to its submit-retry and error-poll loops, so a service
	// that never recovers cannot spin a caller forever.
	MaxElapsed time.Duration
}

// backoff returns the sleep before try attempt+1 (attempt ≥ 1 completed
// tries), exponential with cap and jitter. rnd supplies the uniform [0,1)
// draw so tests can pin it.
func (p *RetryPolicy) backoff(attempt int, rnd func() float64) time.Duration {
	delay := p.BaseDelay
	// Cap the shift count: beyond 2^20 the MaxDelay cap (or any sane
	// ctx deadline) has long since taken over.
	for i := 1; i < attempt && i < 20; i++ {
		delay *= 2
		if p.MaxDelay > 0 && delay >= p.MaxDelay {
			break
		}
	}
	if p.MaxDelay > 0 && delay > p.MaxDelay {
		delay = p.MaxDelay
	}
	jitter := p.Jitter
	if jitter == 0 {
		jitter = 0.2
	}
	if jitter > 0 && delay > 0 {
		delay += time.Duration(float64(delay) * jitter * rnd())
	}
	return delay
}

// retryableStatus reports whether an HTTP status merits a retry.
func retryableStatus(code int) bool {
	return code >= 500 || code == http.StatusTooManyRequests
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// sleepCtx blocks for d or until the context is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// respMeta captures response metadata (headers) for callers that need more
// than the decoded body, e.g. pagination totals.
type respMeta struct {
	header http.Header
}

// do performs one API call. idemKey, when non-empty, rides along as the
// Idempotency-Key header and makes the request safe to retry: the service
// dedups it, so the retry policy applies to keyed POSTs exactly as to GETs.
func (c *Client) do(ctx context.Context, method, path string, body []byte, contentType, idemKey string, out any, meta *respMeta) error {
	attempts := 1
	if c.Retry != nil && c.Retry.MaxAttempts > 1 && (method == http.MethodGet || idemKey != "") {
		attempts = c.Retry.MaxAttempts
	}
	start := time.Now()
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			delay := c.Retry.backoff(attempt, rand.Float64)
			// A server-sent Retry-After is authoritative when it is longer
			// than our own backoff: a compliant client does not hammer a
			// service that told it when to come back.
			var apiErr *APIError
			if errors.As(lastErr, &apiErr) && apiErr.RetryAfter > delay {
				delay = apiErr.RetryAfter
			}
			if c.Retry.MaxElapsed > 0 && time.Since(start)+delay > c.Retry.MaxElapsed {
				return fmt.Errorf("cloud: retry budget %s exhausted: %w", c.Retry.MaxElapsed, lastErr)
			}
			if err := sleepCtx(ctx, delay); err != nil {
				return errors.Join(err, lastErr)
			}
		}
		retryable, err := c.doOnce(ctx, method, path, body, contentType, idemKey, out, meta)
		if err == nil {
			return nil
		}
		lastErr = err
		if !retryable {
			return err
		}
	}
	return lastErr
}

// doOnce performs one request and reports whether a failure is retryable.
func (c *Client) doOnce(ctx context.Context, method, path string, body []byte, contentType, idemKey string, out any, meta *respMeta) (retryable bool, err error) {
	if c.AttemptTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.AttemptTimeout)
		defer cancel()
	}
	var reader io.Reader
	if body != nil {
		reader = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, reader)
	if err != nil {
		return false, fmt.Errorf("cloud: building request: %w", err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if idemKey != "" {
		req.Header.Set("Idempotency-Key", idemKey)
	}
	if c.ClientID != "" {
		req.Header.Set("X-Client-Id", c.ClientID)
	}
	if c.APIKey != "" {
		req.Header.Set("Authorization", "Bearer "+c.APIKey)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return true, fmt.Errorf("cloud: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if meta != nil {
		meta.header = resp.Header
	}
	if resp.StatusCode >= 300 {
		apiErr := &APIError{
			Code:       CodeInternal,
			Message:    fmt.Sprintf("HTTP %d", resp.StatusCode),
			Status:     resp.StatusCode,
			RetryAfter: parseRetryAfter(resp.Header),
		}
		var env errorEnvelope
		parsed := json.NewDecoder(resp.Body).Decode(&env) == nil && env.Error.Code != ""
		if parsed {
			apiErr.Code = env.Error.Code
			apiErr.Message = env.Error.Message
		}
		// duplicate_in_flight (409) means someone — possibly our own torn
		// first attempt — is analyzing this capture right now; a retry
		// returns its result, so it is retryable despite the 4xx status. An
		// error body that won't parse is a connection torn mid-response: the
		// server's verdict never arrived, so the failure is ambiguous and a
		// retry (bounded by the policy) is the only way to learn it.
		return retryableStatus(resp.StatusCode) || apiErr.Code == CodeDuplicateInFlight || !parsed,
			fmt.Errorf("cloud: %s %s: %w", method, path, apiErr)
	}
	if out == nil {
		return false, nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		// A 2xx whose body won't decode is almost always a torn connection
		// (truncated body), not a malformed server: worth retrying.
		return true, fmt.Errorf("cloud: decoding %s %s response: %w", method, path, err)
	}
	return false, nil
}

// SubmitCompressed uploads an already zip-compressed capture, waits for the
// inline analysis, and returns the analysis id and report. The request
// carries the payload's content-derived capture key (CaptureKey), so client
// retries, breaker flushes, and spool replays of the same capture return the
// original analysis instead of storing it twice.
func (c *Client) SubmitCompressed(ctx context.Context, payload []byte) (SubmitResponse, error) {
	return c.SubmitCompressedKeyed(ctx, payload, CaptureKey(payload))
}

// SubmitCompressedKeyed is SubmitCompressed with an explicit Idempotency-Key.
// Submissions sharing a key are one logical capture to the service — exactly
// one stored analysis; distinct keys force distinct analyses even for
// byte-identical payloads.
func (c *Client) SubmitCompressedKeyed(ctx context.Context, payload []byte, key string) (SubmitResponse, error) {
	var out SubmitResponse
	err := c.do(ctx, http.MethodPost, "/api/v1/analyses", payload, "application/zip", key, &out, nil)
	return out, err
}

// BatchSubmission is one capture handed to SubmitBatch. An empty
// IdempotencyKey derives the payload's content digest, exactly as
// SubmitCompressed does for a single capture.
type BatchSubmission struct {
	Payload        []byte
	IdempotencyKey string
}

// SubmitBatch uploads up to MaxBatchItems captures in one
// POST /api/v1/analyses:batch round trip and returns the per-item status
// envelope. Every item carries its own idempotency key (content-derived when
// not supplied), so the request is safe to retry as a whole: a re-sent batch
// dedups item by item, never storing a capture twice. Spool flushes coalesce
// through this call (phone.OfflineQueue).
func (c *Client) SubmitBatch(ctx context.Context, items []BatchSubmission) (BatchResponse, error) {
	req := BatchRequest{Items: make([]BatchItem, len(items))}
	for i, it := range items {
		key := it.IdempotencyKey
		if key == "" {
			key = CaptureKey(it.Payload)
		}
		req.Items[i] = BatchItem{IdempotencyKey: key, Payload: it.Payload}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return BatchResponse{}, fmt.Errorf("cloud: encoding batch: %w", err)
	}
	// The batch endpoint ignores the request-level Idempotency-Key header —
	// per-item keys carry the dedup semantics — but setting it marks the
	// request retry-safe to the retry policy, which is exactly right: a
	// retried batch resolves each item against the dedup index.
	var out BatchResponse
	err = c.do(ctx, http.MethodPost, "/api/v1/analyses:batch", body, "application/json", batchRequestKey(req.Items), &out, nil)
	return out, err
}

// batchRequestKey derives a batch's request-level Idempotency-Key from its
// item keys: SHA-256 over the keys, each prefixed with its length. A retried
// batch carries the same value without hashing the whole payload-sized body.
func batchRequestKey(items []BatchItem) string {
	h := sha256.New()
	var n [8]byte
	for _, it := range items {
		binary.BigEndian.PutUint64(n[:], uint64(len(it.IdempotencyKey)))
		h.Write(n[:])
		io.WriteString(h, it.IdempotencyKey)
	}
	return "batch:sha256:" + hex.EncodeToString(h.Sum(nil))
}

// SubmitAcquisition compresses and uploads a capture (idempotently, keyed by
// the compressed payload's digest).
func (c *Client) SubmitAcquisition(ctx context.Context, acq lockin.Acquisition) (SubmitResponse, error) {
	payload, err := csvio.CompressAcquisition(acq)
	if err != nil {
		return SubmitResponse{}, err
	}
	return c.SubmitCompressed(ctx, payload)
}

// SubmitAcquisitionKeyed compresses and uploads a capture under an explicit
// Idempotency-Key.
func (c *Client) SubmitAcquisitionKeyed(ctx context.Context, acq lockin.Acquisition, key string) (SubmitResponse, error) {
	payload, err := csvio.CompressAcquisition(acq)
	if err != nil {
		return SubmitResponse{}, err
	}
	return c.SubmitCompressedKeyed(ctx, payload, key)
}

// SubmitCompressedAsync enqueues an upload on the service's job queue and
// returns the accepted job without waiting for analysis — or, when the
// capture key already owns work, the original job (a synthesized done job
// once only the analysis survives). Queue-full backpressure surfaces as an
// error matching ErrQueueFull. Keyed by the payload digest like
// SubmitCompressed.
func (c *Client) SubmitCompressedAsync(ctx context.Context, payload []byte) (Job, error) {
	return c.SubmitCompressedAsyncKeyed(ctx, payload, CaptureKey(payload))
}

// SubmitCompressedAsyncKeyed is SubmitCompressedAsync with an explicit
// Idempotency-Key.
func (c *Client) SubmitCompressedAsyncKeyed(ctx context.Context, payload []byte, key string) (Job, error) {
	var job Job
	err := c.do(ctx, http.MethodPost, "/api/v1/analyses?async=1", payload, "application/zip", key, &job, nil)
	return job, err
}

// GetJob fetches an async job's current state.
func (c *Client) GetJob(ctx context.Context, id string) (Job, error) {
	var job Job
	err := c.do(ctx, http.MethodGet, "/api/v1/jobs/"+id, nil, "", "", &job, nil)
	return job, err
}

// defaultPollInterval paces SubmitAndPoll status checks.
const defaultPollInterval = 250 * time.Millisecond

// SubmitAndPoll submits a capture through the async job API and polls the
// job until it completes, returning the same SubmitResponse the synchronous
// path would. Queue-full, rate-limited, overload-shed, duplicate-in-flight,
// and shutting-down rejections are retried after the server's Retry-After
// hint; cancellation is honored at every wait. interval ≤ 0 selects the
// default 250 ms. When Retry.MaxElapsed is set, the same budget bounds the
// submit-retry loop and any run of consecutive failed polls, so a service
// that never recovers cannot hold the caller forever. Keyed by the payload
// digest like SubmitCompressed.
func (c *Client) SubmitAndPoll(ctx context.Context, payload []byte, interval time.Duration) (SubmitResponse, error) {
	return c.SubmitAndPollKeyed(ctx, payload, interval, CaptureKey(payload))
}

// SubmitAndPollKeyed is SubmitAndPoll with an explicit Idempotency-Key.
func (c *Client) SubmitAndPollKeyed(ctx context.Context, payload []byte, interval time.Duration, key string) (SubmitResponse, error) {
	if interval <= 0 {
		interval = defaultPollInterval
	}
	var budget time.Duration
	if c.Retry != nil {
		budget = c.Retry.MaxElapsed
	}
	var job Job
	submitStart := time.Now()
	for {
		j, err := c.SubmitCompressedAsyncKeyed(ctx, payload, key)
		if err == nil {
			job = j
			break
		}
		// Queue-full, rate-limited, shed, duplicate-in-flight, and
		// shutting-down answers are transient: the queue drains, the bucket
		// refills, the in-flight duplicate completes (and then dedups), and
		// a draining instance is replaced by one that recovers its journal.
		// Anything else is final.
		if !errors.Is(err, ErrQueueFull) && !errors.Is(err, ErrUnavailable) &&
			!errors.Is(err, ErrRateLimited) && !errors.Is(err, ErrOverloaded) &&
			!errors.Is(err, ErrDuplicateInFlight) {
			return SubmitResponse{}, err
		}
		if budget > 0 && time.Since(submitStart) > budget {
			return SubmitResponse{}, fmt.Errorf("cloud: retry budget %s exhausted: %w", budget, err)
		}
		wait := interval
		var apiErr *APIError
		if errors.As(err, &apiErr) && apiErr.RetryAfter > 0 {
			wait = apiErr.RetryAfter
		}
		if serr := sleepCtx(ctx, wait); serr != nil {
			return SubmitResponse{}, errors.Join(serr, err)
		}
	}
	// A dedup hit whose job record was already evicted arrives as a
	// synthesized done job (no ID to poll); the terminal check below routes
	// it straight to the report fetch.
	lastGoodPoll := time.Now()
	for !job.Status.Terminal() {
		if err := sleepCtx(ctx, interval); err != nil {
			return SubmitResponse{}, err
		}
		j, err := c.GetJob(ctx, job.ID)
		if err != nil {
			// A restarting server journals accepted jobs and recovers them,
			// so a transport error or 5xx mid-poll is worth riding out (the
			// sleep above paces each retry); only a definitive API answer —
			// e.g. 404 after the record's retention expired — ends the poll.
			var apiErr *APIError
			if errors.As(err, &apiErr) && !retryableStatus(apiErr.Status) {
				return SubmitResponse{}, err
			}
			if ctx.Err() != nil {
				return SubmitResponse{}, errors.Join(ctx.Err(), err)
			}
			if budget > 0 && time.Since(lastGoodPoll) > budget {
				return SubmitResponse{}, fmt.Errorf("cloud: retry budget %s exhausted polling job %s: %w", budget, job.ID, err)
			}
			continue
		}
		lastGoodPoll = time.Now()
		job = j
	}
	if job.Status == JobFailed || job.Status == JobPoisoned {
		return SubmitResponse{}, fmt.Errorf("cloud: job %s: %w",
			job.ID, &APIError{Code: job.ErrorCode, Message: job.Error})
	}
	report, err := c.GetReport(ctx, job.AnalysisID)
	if err != nil {
		return SubmitResponse{}, err
	}
	return SubmitResponse{ID: job.AnalysisID, Report: report}, nil
}

// JobFilter bounds and filters a jobs listing request. The zero value
// requests every retained job.
type JobFilter struct {
	// Status, when non-empty, restricts rows to one lifecycle state.
	Status JobStatus
	Page
}

func (f JobFilter) query() string {
	q := make(url.Values)
	if f.Status != "" {
		q.Set("status", string(f.Status))
	}
	if f.Limit != 0 {
		q.Set("limit", strconv.Itoa(f.Limit))
	}
	if f.Offset != 0 {
		q.Set("offset", strconv.Itoa(f.Offset))
	}
	if len(q) == 0 {
		return ""
	}
	return "?" + q.Encode()
}

// ListJobs returns every job record the service still retains.
func (c *Client) ListJobs(ctx context.Context) ([]Job, error) {
	out, _, err := c.ListJobsPage(ctx, JobFilter{})
	return out, err
}

// ListJobsPage returns one page of job records plus the pre-paging total
// (X-Total-Count), optionally filtered by status.
func (c *Client) ListJobsPage(ctx context.Context, f JobFilter) ([]Job, int, error) {
	var out struct {
		Jobs []Job `json:"jobs"`
	}
	var meta respMeta
	err := c.do(ctx, http.MethodGet, "/api/v1/jobs"+f.query(), nil, "", "", &out, &meta)
	if err != nil {
		return nil, 0, err
	}
	return out.Jobs, totalCount(meta), nil
}

// Metrics fetches the service's JSON metrics document. Load tooling diffs
// two snapshots around a run to report server-side shed/rate-limit/dedup
// counts; scrapers wanting the Prometheus rendering hit /metrics directly.
func (c *Client) Metrics(ctx context.Context) (Metrics, error) {
	var out Metrics
	err := c.do(ctx, http.MethodGet, "/metrics?format=json", nil, "", "", &out, nil)
	return out, err
}

// GetReport fetches a stored analysis report.
func (c *Client) GetReport(ctx context.Context, id string) (Report, error) {
	var out Report
	err := c.do(ctx, http.MethodGet, "/api/v1/analyses/"+id, nil, "", "", &out, nil)
	return out, err
}

// Authenticate runs cyto-coded authentication on a stored analysis.
func (c *Client) Authenticate(ctx context.Context, id string) (AuthResult, error) {
	var out AuthResult
	err := c.do(ctx, http.MethodPost, "/api/v1/analyses/"+id+"/authenticate", nil, "", "", &out, nil)
	return out, err
}

// Enroll registers a user identifier with the service (provider-side
// operation).
func (c *Client) Enroll(ctx context.Context, userID string, id beads.Identifier) error {
	req := EnrollRequest{UserID: userID, Identifier: make(map[string]int, len(id))}
	for t, lv := range id {
		req.Identifier[t.String()] = lv
	}
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("cloud: encoding enrollment: %w", err)
	}
	return c.do(ctx, http.MethodPost, "/api/v1/users", body, "application/json", "", nil, nil)
}

// Page bounds a listing request. The zero value requests everything.
type Page struct {
	// Limit is the maximum number of rows returned (0 → no limit).
	Limit int
	// Offset skips that many rows of the full ordered listing.
	Offset int
}

func (p Page) query() string {
	if p.Limit == 0 && p.Offset == 0 {
		return ""
	}
	return "?limit=" + strconv.Itoa(p.Limit) + "&offset=" + strconv.Itoa(p.Offset)
}

// totalCount reads the X-Total-Count pagination header (-1 when absent).
func totalCount(meta respMeta) int {
	v := meta.header.Get("X-Total-Count")
	if v == "" {
		return -1
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return -1
	}
	return n
}

// ListAnalyses returns summaries of every stored analysis.
func (c *Client) ListAnalyses(ctx context.Context) ([]AnalysisSummary, error) {
	out, _, err := c.ListAnalysesPage(ctx, Page{})
	return out, err
}

// ListAnalysesPage returns one page of analysis summaries plus the total
// number of stored analyses (X-Total-Count).
func (c *Client) ListAnalysesPage(ctx context.Context, p Page) ([]AnalysisSummary, int, error) {
	var out struct {
		Analyses []AnalysisSummary `json:"analyses"`
	}
	var meta respMeta
	err := c.do(ctx, http.MethodGet, "/api/v1/analyses"+p.query(), nil, "", "", &out, &meta)
	if err != nil {
		return nil, 0, err
	}
	return out.Analyses, totalCount(meta), nil
}

// UserAnalyses lists the analysis ids linked to a user.
func (c *Client) UserAnalyses(ctx context.Context, userID string) ([]string, error) {
	out, _, err := c.UserAnalysesPage(ctx, userID, Page{})
	return out, err
}

// UserAnalysesPage returns one page of a user's analysis ids plus the total
// linked count (X-Total-Count).
func (c *Client) UserAnalysesPage(ctx context.Context, userID string, p Page) ([]string, int, error) {
	var out struct {
		AnalysisIDs []string `json:"analysis_ids"`
	}
	var meta respMeta
	err := c.do(ctx, http.MethodGet, "/api/v1/users/"+userID+"/analyses"+p.query(), nil, "", "", &out, &meta)
	if err != nil {
		return nil, 0, err
	}
	return out.AnalysisIDs, totalCount(meta), nil
}

// IssueKey mints an API key (admin only). The returned secret appears
// exactly once — the service stores only its hash.
func (c *Client) IssueKey(ctx context.Context, role, subject string) (IssuedKey, error) {
	body, err := json.Marshal(IssueKeyRequest{Role: role, Subject: subject})
	if err != nil {
		return IssuedKey{}, fmt.Errorf("cloud: encoding key request: %w", err)
	}
	var out IssuedKey
	err = c.do(ctx, http.MethodPost, "/api/v1/keys", body, "application/json", "", &out, nil)
	return out, err
}

// ListKeys returns one page of API-key metadata plus the total key count
// (admin only).
func (c *Client) ListKeys(ctx context.Context, p Page) ([]KeyInfo, int, error) {
	var out struct {
		Keys []KeyInfo `json:"keys"`
	}
	var meta respMeta
	err := c.do(ctx, http.MethodGet, "/api/v1/keys"+p.query(), nil, "", "", &out, &meta)
	if err != nil {
		return nil, 0, err
	}
	return out.Keys, totalCount(meta), nil
}

// RevokeKey revokes an API key by id (admin only).
func (c *Client) RevokeKey(ctx context.Context, id string) (KeyInfo, error) {
	var out KeyInfo
	err := c.do(ctx, http.MethodDelete, "/api/v1/keys/"+id, nil, "", "", &out, nil)
	return out, err
}

// AuditFilter bounds and filters an audit-trail listing request. The zero
// value requests the whole retained chain.
type AuditFilter struct {
	// Actor, when non-empty, keeps only records by that actor (exact match).
	Actor string
	// Action, when non-empty, keeps only records of that action.
	Action string
	Page
}

func (f AuditFilter) query() string {
	q := make(url.Values)
	if f.Actor != "" {
		q.Set("actor", f.Actor)
	}
	if f.Action != "" {
		q.Set("action", f.Action)
	}
	if f.Limit != 0 {
		q.Set("limit", strconv.Itoa(f.Limit))
	}
	if f.Offset != 0 {
		q.Set("offset", strconv.Itoa(f.Offset))
	}
	if len(q) == 0 {
		return ""
	}
	return "?" + q.Encode()
}

// AuditRecords returns one page of the audit trail plus the pre-paging
// record count (admin only).
func (c *Client) AuditRecords(ctx context.Context, f AuditFilter) ([]audit.Record, int, error) {
	var out struct {
		Records []audit.Record `json:"records"`
	}
	var meta respMeta
	err := c.do(ctx, http.MethodGet, "/api/v1/audit"+f.query(), nil, "", "", &out, &meta)
	if err != nil {
		return nil, 0, err
	}
	return out.Records, totalCount(meta), nil
}
