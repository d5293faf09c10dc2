package main

import (
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"magicstate/internal/store"
)

// TestRunReportsStoreCloseError boots run against a -store whose final
// sync fails (-fault-store failsync=1), answers one point, and shuts
// down on a signal: the run must return the injected fault rather than
// exit clean, and the record it answered must still be on disk. The
// same run without the fault returns nil.
func TestRunReportsStoreCloseError(t *testing.T) {
	for name, faults := range map[string]string{"failsync": "failsync=1", "nofault": ""} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			storeDir := filepath.Join(dir, "store")
			addrFile := filepath.Join(dir, "addr")
			sig := make(chan os.Signal, 1)
			done := make(chan error, 1)
			cfg := serverConfig{MaxParallel: 1, MaxPoints: 16, MaxInflight: 1, MaxQueue: 4}
			go func() { done <- run("127.0.0.1:0", addrFile, storeDir, faults, cfg, 5*time.Second, sig) }()
			stopped := false
			var runErr error
			stop := func() error {
				if !stopped {
					stopped = true
					sig <- syscall.SIGTERM
					runErr = <-done
				}
				return runErr
			}
			defer stop()

			var addr []byte
			for i := 0; i < 200 && len(addr) == 0; i++ {
				time.Sleep(10 * time.Millisecond)
				addr, _ = os.ReadFile(addrFile)
			}
			if len(addr) == 0 {
				t.Fatal("run never wrote its address")
			}
			resp := postJSON(t, "http://"+string(addr)+"/v1/optimize", optimizeRequest{Capacity: 4, Levels: 1})
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("optimize status = %d, want 200", resp.StatusCode)
			}
			err := stop()
			if faults != "" && !errors.Is(err, store.ErrInjected) {
				t.Fatalf("run = %v, want the injected sync fault", err)
			}
			if faults == "" && err != nil {
				t.Fatalf("run = %v, want nil", err)
			}

			st, err := store.Open(storeDir)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if got := st.Stats().Records; got != 1 {
				t.Errorf("reopened store holds %d reports, want 1", got)
			}
		})
	}
}
