package cloud

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// recordSubmitBatch runs Client.SubmitBatch against a server that records the
// request body and Idempotency-Key header, and answers an empty envelope.
func recordSubmitBatch(t testing.TB, items []BatchSubmission) (body []byte, key string) {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ = io.ReadAll(r.Body)
		key = r.Header.Get("Idempotency-Key")
		writeJSON(w, http.StatusOK, BatchResponse{})
	}))
	defer ts.Close()
	if _, err := (&Client{BaseURL: ts.URL}).SubmitBatch(context.Background(), items); err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	return body, key
}

// batchDecodeCases are bodies for both decode paths: direct says whether the
// direct path takes the body, and the rest fall back to encoding/json. They
// seed FuzzDecodeBatchRequest.
var batchDecodeCases = []struct {
	name   string
	body   string
	direct bool
}{
	{"submit batch shape", `{"items":[{"idempotency_key":"k1","payload":"QUJD"},{"idempotency_key":"k2","owner":"p-1","payload":"QUJDRA=="}]}`, true},
	{"whitespace and key order", " \t\r\n{ \"items\" : [ { \"payload\" : \"QUJD\" , \"owner\" : \"o\" } ] } ", true},
	{"empty items", `{"items":[]}`, true},
	{"empty item", `{"items":[{}]}`, true},
	{"empty payload", `{"items":[{"payload":""}]}`, true},
	{"non-canonical padding", `{"items":[{"payload":"QR=="}]}`, true},
	{"trailing garbage", `{"items":[{"payload":"QUJD"}]}garbage`, true},
	{"case-variant key", `{"items":[{"Payload":"QUJD"}]}`, false},
	{"unicode-folded key", `{"itemſ":[{"payload":"QUJD"}]}`, false},
	{"unknown field", `{"items":[{"payload":"QUJD","extra":1}]}`, false},
	{"two owner keys", `{"items":[{"owner":"a","owner":"b","payload":"QUJD"}]}`, false},
	{"two items keys", `{"items":[{"payload":"QUJD"}],"items":[{"owner":"x"}]}`, false},
	{"null payload", `{"items":[{"payload":null}]}`, false},
	{"null items", `{"items":null}`, false},
	{"no items key", `{}`, false},
	{"escaped slash in base64", `{"items":[{"payload":"QU\/D"}]}`, false},
	{"raw newline in payload", "{\"items\":[{\"payload\":\"QUJD\nQUJD\"}]}", false},
	{"escaped newline in payload", `{"items":[{"payload":"QUJD\nQUJD"}]}`, false},
	{"invalid UTF-8 owner", "{\"items\":[{\"owner\":\"\xff\",\"payload\":\"QUJD\"}]}", false},
	{"escaped key", `{"items":[{"idempotency_key":"a\"b","payload":"QUJD"}]}`, false},
	{"bad base64", `{"items":[{"payload":"!!!!"}]}`, false},
	{"number payload", `{"items":[{"payload":12}]}`, false},
	{"truncated", `{"items":[{"payload":"QUJD"}`, false},
	{"empty body", ``, false},
	{"non-JSON whitespace", "{\"items\":\v\f[]}", false},
}

// checkBatchDecode asserts decodeBatchRequest agrees with encoding/json on
// body — value and error — and, when the direct path accepts body, that
// encoding/json accepts it too.
func checkBatchDecode(t *testing.T, body []byte) (direct bool) {
	t.Helper()
	var want BatchRequest
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	if req, ok := decodeSubmitBatchShape(body); ok {
		if wantErr != nil {
			t.Fatalf("direct path accepted %q, encoding/json rejects it: %v", body, wantErr)
		}
		if !reflect.DeepEqual(req, want) {
			t.Fatalf("direct path on %q = %#v, encoding/json = %#v", body, req, want)
		}
		direct = true
	}
	got, err := decodeBatchRequest(body)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("decodeBatchRequest(%q) error = %v, encoding/json = %v", body, err, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decodeBatchRequest(%q) = %#v, encoding/json = %#v", body, got, want)
	}
	return direct
}

// TestDecodeBatchRequestPaths pins which bodies take the direct path, and
// that both paths decode every case exactly as encoding/json does.
func TestDecodeBatchRequestPaths(t *testing.T) {
	for _, tc := range batchDecodeCases {
		t.Run(tc.name, func(t *testing.T) {
			if direct := checkBatchDecode(t, []byte(tc.body)); direct != tc.direct {
				t.Fatalf("direct path taken = %v, want %v", direct, tc.direct)
			}
		})
	}
	_, payload := testCapture(t, 511, 2)
	body, _ := recordSubmitBatch(t, []BatchSubmission{{Payload: payload}, {Payload: payload, IdempotencyKey: "k"}})
	if !checkBatchDecode(t, body) {
		t.Fatal("a Client.SubmitBatch body fell back to encoding/json")
	}
}

// FuzzDecodeBatchRequest is differential: whenever the direct path accepts
// a body, encoding/json accepts it with a deeply equal value (nil and empty
// slices distinct), and decodeBatchRequest always matches encoding/json.
func FuzzDecodeBatchRequest(f *testing.F) {
	body, _ := recordSubmitBatch(f, []BatchSubmission{
		{Payload: []byte("PK\x03\x04 a capture"), IdempotencyKey: "batch:1:0"},
		{Payload: []byte{0xff, 0x00, 0x10}},
	})
	f.Add(body)
	for _, tc := range batchDecodeCases {
		f.Add([]byte(tc.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkBatchDecode(t, body)
	})
}

// postRawBatch posts body to the batch endpoint with an optional
// Idempotency-Key and returns the status and raw response.
func postRawBatch(t *testing.T, url string, body []byte, idemKey string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/api/v1/analyses:batch", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if idemKey != "" {
		req.Header.Set("Idempotency-Key", idemKey)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// batchResults posts body to a fresh service and returns its per-item
// results.
func batchResults(t *testing.T, body []byte, idemKey string) []BatchItemResult {
	t.Helper()
	_, ts, _ := newTestServer(t)
	status, raw := postRawBatch(t, ts.URL, body, idemKey)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	var resp BatchResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	return resp.Results
}

// TestBatchDecodePathsHTTP: through the service, a SubmitBatch body (direct
// path) and the same items with case-variant keys plus an unknown field
// (encoding/json) give identical per-item results; malformed bodies still
// answer 400 with the decoding message; an over-limit body answers 413 even
// when its JSON value ends before the limit.
func TestBatchDecodePathsHTTP(t *testing.T) {
	_, p1 := testCapture(t, 512, 2)
	_, p2 := testCapture(t, 513, 2)
	items := []BatchSubmission{{Payload: p1, IdempotencyKey: "a"}, {Payload: p2}, {Payload: p1, IdempotencyKey: "a"}}
	direct, _ := recordSubmitBatch(t, items)
	if _, ok := decodeSubmitBatchShape(direct); !ok {
		t.Fatal("SubmitBatch body did not take the direct path")
	}
	variant := []byte(strings.NewReplacer(
		`"items":`, `"Items":`,
		`"payload":`, `"PAYLOAD":`,
		`"idempotency_key":`, `"note":{"x":[1]},"Idempotency_Key":`,
	).Replace(string(direct)))
	if _, ok := decodeSubmitBatchShape(variant); ok {
		t.Fatal("variant body took the direct path")
	}
	want := batchResults(t, direct, "")
	if len(want) != 3 || want[0].Status != http.StatusCreated || want[2].Status != http.StatusOK {
		t.Fatalf("direct-path results = %+v, want 201, 201, 200", want)
	}
	if got := batchResults(t, variant, ""); !reflect.DeepEqual(got, want) {
		t.Fatalf("encoding/json path results = %+v, want %+v", got, want)
	}

	svc, ts, _ := newTestServer(t)
	malformed := []string{`{"items":[`, `not json`, `{"items":[{"payload":"!!!!"}]}`, `{"items":[{"payload":12}]}`}
	for i, body := range malformed {
		status, raw := postRawBatch(t, ts.URL, []byte(body), "")
		var env errorEnvelope
		_ = json.Unmarshal(raw, &env)
		if status != http.StatusBadRequest || env.Error.Code != CodeInvalidRequest ||
			!strings.HasPrefix(env.Error.Message, "decoding batch: ") {
			t.Fatalf("malformed %q: status %d error %+v, want 400 %s \"decoding batch: ...\"", body, status, env.Error, CodeInvalidRequest)
		}
		if m := svc.Snapshot(); m.BatchRejected != int64(i+1) {
			t.Fatalf("after %q: BatchRejected = %d, want %d", body, m.BatchRejected, i+1)
		}
	}

	// The limit is shrunk before the server starts, so the test does not
	// ship a gigabyte.
	small, err := NewService(ServiceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(small.Close)
	small.uploadLimit = 1024
	smallTS := httptest.NewServer(small.Handler())
	t.Cleanup(smallTS.Close)
	over := append([]byte(`{"items":[{"payload":"QUJD"}]}`), bytes.Repeat([]byte(" "), 2048)...)
	status, raw := postRawBatch(t, smallTS.URL, over, "")
	var env errorEnvelope
	_ = json.Unmarshal(raw, &env)
	if status != http.StatusRequestEntityTooLarge || env.Error.Code != CodePayloadTooLarge {
		t.Fatalf("over-limit body: status %d error %+v, want 413 %s", status, env.Error, CodePayloadTooLarge)
	}
	if m := small.Snapshot(); m.BatchRejected != 1 {
		t.Fatalf("over-limit body: BatchRejected = %d, want 1", m.BatchRejected)
	}
}

// TestSubmitBatchRequestKey: SubmitBatch's request-level Idempotency-Key is
// derived from the item keys — the same items always carry the same value,
// different item keys a different one — and the service's per-item results
// do not depend on it.
func TestSubmitBatchRequestKey(t *testing.T) {
	_, p1 := testCapture(t, 514, 2)
	_, p2 := testCapture(t, 515, 2)
	items := []BatchSubmission{{Payload: p1, IdempotencyKey: "a"}, {Payload: p2}}
	body, key := recordSubmitBatch(t, items)
	if _, again := recordSubmitBatch(t, items); again != key || key == "" {
		t.Fatalf("request key %q then %q, want one stable value", key, again)
	}
	// Length prefixes keep ["ab", "c"] and ["a", "bc"] apart.
	_, k1 := recordSubmitBatch(t, []BatchSubmission{{Payload: p1, IdempotencyKey: "ab"}, {Payload: p2, IdempotencyKey: "c"}})
	_, k2 := recordSubmitBatch(t, []BatchSubmission{{Payload: p1, IdempotencyKey: "a"}, {Payload: p2, IdempotencyKey: "bc"}})
	if k1 == k2 || k1 == key || k2 == key {
		t.Fatalf("distinct item keys share a request key: %q %q %q", key, k1, k2)
	}

	want := batchResults(t, body, key)
	if len(want) != 2 || want[0].Status != http.StatusCreated || want[1].Status != http.StatusCreated {
		t.Fatalf("results = %+v, want two 201s", want)
	}
	for _, idem := range []string{"", "unrelated"} {
		if got := batchResults(t, body, idem); !reflect.DeepEqual(got, want) {
			t.Fatalf("results with Idempotency-Key %q = %+v, want %+v", idem, got, want)
		}
	}
}
