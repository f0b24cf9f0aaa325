package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"

	"medsen/internal/audit"
	"medsen/internal/auth"
	"medsen/internal/cloud"
	"medsen/internal/csvio"
	"medsen/internal/lockin"
	"medsen/internal/sigproc"
)

// serverShadow re-runs, through their public functions, the service layers
// that execute inside one HTTP round trip: authentication, unzip+CSV decode,
// analysis (detrend and peaks below it), store commit and audit append. The
// store and audit log are its own, in a separate directory, so shadow calls
// leave the measured service's state untouched; the keystore is the
// service's, read-only.
type serverShadow struct {
	keystore *auth.Keystore
	store    *cloud.DiskStore
	audit    *audit.Log
	buf      csvio.DecodeBuffer
	cfg      cloud.AnalysisConfig
	n        int
}

func newServerShadow(workDir string, ks *auth.Keystore) (*serverShadow, error) {
	dir, err := os.MkdirTemp(workDir, "shadow-")
	if err != nil {
		return nil, err
	}
	store, err := cloud.NewDiskStore(cloud.DiskStoreConfig{Dir: dir})
	if err != nil {
		return nil, err
	}
	log, err := audit.Open(cloud.AuditLogPath(dir))
	if err != nil {
		return nil, err
	}
	return &serverShadow{keystore: ks, store: store, audit: log, cfg: cloud.DefaultAnalysisConfig()}, nil
}

func (s *serverShadow) close() { _ = s.audit.Close() }

// authenticate shadows the bearer-key check a request passes through.
func (s *serverShadow) authenticate(tr *tracer, parent int, trace, secret string) (auth.Principal, error) {
	var p auth.Principal
	_, err := tr.shadow(parent, "auth.authenticate", trace, func() error {
		var err error
		p, err = s.keystore.Authenticate(secret)
		return err
	})
	return p, err
}

// analysis shadows one fresh capture's server work below parent and checks
// that the shadow analysis reproduces the report the service returned.
func (s *serverShadow) analysis(tr *tracer, parent int, trace string, payload []byte, p auth.Principal, want cloud.Report) error {
	var acq lockin.Acquisition
	if _, err := tr.shadow(parent, "csvio.decode", trace, func() error {
		var err error
		acq, err = csvio.DecompressAcquisitionBuffer(payload, &s.buf)
		return err
	}); err != nil {
		return err
	}
	var report cloud.Report
	analyzeID, err := tr.shadow(parent, "cloud.analyze", trace, func() error {
		var err error
		report, err = cloud.Analyze(acq, s.cfg)
		return err
	})
	if err != nil {
		return err
	}
	if report.PeakCount != want.PeakCount {
		return fmt.Errorf("shadow analysis of %s found %d peaks, the service %d", trace, report.PeakCount, want.PeakCount)
	}
	var flat []sigproc.Trace
	if _, err := tr.shadow(analyzeID, "sigproc.detrend", trace, func() error {
		var err error
		flat, err = detrendCarriers(acq, s.cfg.Detrend)
		return err
	}); err != nil {
		return err
	}
	ref := 0
	for i, f := range acq.CarriersHz {
		if f == s.cfg.ReferenceCarrierHz {
			ref = i
		}
	}
	if _, err := tr.shadow(analyzeID, "sigproc.peaks", trace, func() error {
		sigproc.DetectPeaks(flat[ref], s.cfg.Peaks)
		return nil
	}); err != nil {
		return err
	}
	s.n++
	id := fmt.Sprintf("an-%d", s.n)
	doc, err := json.Marshal(struct {
		ID     string       `json:"id"`
		Owner  string       `json:"owner,omitempty"`
		Report cloud.Report `json:"report"`
	}{id, p.Subject, report})
	if err != nil {
		return err
	}
	if _, err := tr.shadow(parent, "cloud.store.put", trace, func() error {
		return s.store.Put(cloud.KindAnalysis, id, doc)
	}); err != nil {
		return err
	}
	return s.appendAudit(tr, parent, trace, p, id)
}

// appendAudit shadows the audit record a submission (fresh or deduplicated)
// appends.
func (s *serverShadow) appendAudit(tr *tracer, parent int, trace string, p auth.Principal, object string) error {
	_, err := tr.shadow(parent, "audit.append", trace, func() error {
		_, err := s.audit.Append(audit.Record{
			Actor: p.Subject, KeyID: p.KeyID, Role: string(p.Role),
			Action: "analysis.create", Object: object, Outcome: audit.OutcomeOK,
		})
		return err
	})
	return err
}

// detrendCarriers detrends every carrier the way cloud.Analyze does: the
// carriers spread over GOMAXPROCS goroutines, one worker per carrier.
func detrendCarriers(acq lockin.Acquisition, cfg sigproc.DetrendConfig) ([]sigproc.Trace, error) {
	out := make([]sigproc.Trace, len(acq.Traces))
	errs := make([]error, len(acq.Traces))
	next := make(chan int, len(acq.Traces))
	for i := range acq.Traces {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < min(runtime.GOMAXPROCS(0), len(acq.Traces)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i], errs[i] = sigproc.DetrendWorkers(acq.Traces[i], cfg, 1)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
