package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"medsen/internal/audit"
	"medsen/internal/auth"
	"medsen/internal/cloud"
)

// stack is the analysis service in its deployment configuration, served
// in-process on a loopback listener: a DiskStore in a fresh state directory,
// authentication on with one owner key per simulated device, the
// hash-chained audit log, and default workers. Clients reach it through a
// transport capped at conns connections.
type stack struct {
	dir      string
	svc      *cloud.Service
	server   *http.Server
	served   chan error
	base     string
	keystore *auth.Keystore
	audit    *audit.Log
	// secrets[i] is device i's API key.
	secrets   []string
	http      *http.Client
	transport *http.Transport
	// metricsClient reads /metrics, which stays anonymous.
	metricsClient *cloud.Client
}

func startStack(workDir string, devices, conns int) (*stack, error) {
	dir, err := os.MkdirTemp(workDir, "state-")
	if err != nil {
		return nil, fmt.Errorf("creating state dir: %w", err)
	}
	st := &stack{dir: dir}
	if err := st.open(devices, conns); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

func (st *stack) open(devices, conns int) error {
	var err error
	if st.keystore, err = auth.OpenKeystore(nil, cloud.AuthDir(st.dir)); err != nil {
		return err
	}
	if st.audit, err = audit.Open(cloud.AuditLogPath(st.dir)); err != nil {
		return err
	}
	for i := 0; i < devices; i++ {
		_, secret, err := st.keystore.Issue(auth.RoleOwner, fmt.Sprintf("device-%d", i))
		if err != nil {
			return fmt.Errorf("issuing device key: %w", err)
		}
		st.secrets = append(st.secrets, secret)
	}
	st.svc, err = cloud.NewService(cloud.ServiceConfig{
		StateDir: st.dir,
		Keystore: st.keystore,
		Audit:    st.audit,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("loopback listener: %w", err)
	}
	st.base = "http://" + ln.Addr().String()
	st.server = &http.Server{
		Handler:           st.svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	st.served = make(chan error, 1)
	go func() { st.served <- st.server.Serve(ln) }()
	st.transport = &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     time.Minute,
	}
	st.http = &http.Client{Transport: tracedTransport{base: st.transport}}
	st.metricsClient = &cloud.Client{BaseURL: st.base, HTTPClient: st.http}
	return nil
}

// client returns device i's API client over the shared transport.
func (st *stack) client(device int) *cloud.Client {
	return &cloud.Client{
		BaseURL:    st.base,
		HTTPClient: st.http,
		APIKey:     st.secrets[device],
		ClientID:   fmt.Sprintf("device-%d", device),
	}
}

func (st *stack) metrics(ctx context.Context) (cloud.Metrics, error) {
	return st.metricsClient.Metrics(ctx)
}

// close stops the server and the service and waits for both. The state
// directory stays (see run in main.go).
func (st *stack) close() {
	if st.server != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = st.server.Shutdown(ctx)
		cancel()
		if err := <-st.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "e2ebench: server: %v\n", err)
		}
	}
	if st.transport != nil {
		st.transport.CloseIdleConnections()
	}
	if st.svc != nil {
		st.svc.Close()
	}
	if st.audit != nil {
		_ = st.audit.Close()
	}
}

// countRejection tallies an admission refusal (429 or 503) by its error
// code.
func countRejection(rejected map[string]int, err error) {
	var apiErr *cloud.APIError
	if errors.As(err, &apiErr) && (apiErr.Status == 429 || apiErr.Status == 503) {
		rejected[apiErr.Code]++
	}
}
