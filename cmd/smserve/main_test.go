package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"splitmfg/cmd/internal/cli"
)

// TestServeSubmitDrain: boot the server on an ephemeral port, submit a
// small evaluate job over HTTP, poll it to completion, then cancel the
// serve context (the SIGTERM path) and check the drain completes cleanly.
func TestServeSubmitDrain(t *testing.T) {
	addrs := make(chan net.Addr, 1)
	onListen = func(addr net.Addr) { addrs <- addr }
	defer func() { onListen = nil }()

	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	var out bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-jobs", "1", "-drain", "30s"}, &out)
	}()

	var base string
	select {
	case addr := <-addrs:
		base = "http://" + addr.String()
	case err := <-done:
		t.Fatalf("server exited before listening: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never bound")
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz returned %d", resp.StatusCode)
	}

	body := `{"kind":"evaluate","benchmark":"c432","pattern_words":4,"split_layers":[3],"attackers":["random"]}`
	resp, err = http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var info struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || info.ID == "" {
		t.Fatalf("submit returned %d with id %q", resp.StatusCode, info.ID)
	}

	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + info.ID)
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			State  string          `json:"state"`
			Report json.RawMessage `json:"report"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if st.State == "done" {
			if len(st.Report) == 0 {
				t.Fatal("done job served no report")
			}
			break
		}
		if st.State == "failed" || st.State == "canceled" {
			t.Fatalf("job ended %s", st.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %s after deadline", st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}

	stop()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after drain", err)
		}
	case <-time.After(45 * time.Second):
		t.Fatal("server did not drain")
	}
	for _, want := range []string{"listening on", "draining", "bye"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output %q lacks %q", out.String(), want)
		}
	}
}

// TestBadFlags: flag errors surface as errors, not exits.
func TestBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-bogus"}, &out); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

// runMain runs the command as main does and returns its exit status and
// everything written to stderr, fs.Parse's own output included.
func runMain(t *testing.T, args ...string) (int, string) {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stderr
	os.Stderr = f
	code := cli.ExitCode("smserve", run(context.Background(), args, io.Discard), f)
	os.Stderr = saved
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(out)
}

// TestMainExitStatus: -h prints the usage and exits 0, a flag error is
// printed once (by fs.Parse, with the usage) and exits 2, and a run error
// is printed once under the command's name and exits 1.
func TestMainExitStatus(t *testing.T) {
	// A cache dir that is a regular file fails before the server listens.
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if code, out := runMain(t, "-h"); code != 0 || !strings.Contains(out, "Usage of smserve:") || strings.Contains(out, "help requested") {
		t.Errorf("-h: exit %d, stderr %q", code, out)
	}
	if code, out := runMain(t, "-bogus"); code != 2 || strings.Count(out, "-bogus") != 1 {
		t.Errorf("-bogus: exit %d, stderr %q", code, out)
	}
	if code, out := runMain(t, "-cache-dir", file); code != 1 || !strings.HasPrefix(out, "smserve: ") || strings.Count(out, "\n") != 1 {
		t.Errorf("-cache-dir <file>: exit %d, stderr %q", code, out)
	}
}

// TestSignalsDrain: SIGINT and SIGTERM each cancel the context main runs
// the server under, and the server drains. A guard channel also catches
// the signal, so one the context misses fails the test instead of
// killing it.
func TestSignalsDrain(t *testing.T) {
	self, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	for _, sig := range []os.Signal{os.Interrupt, syscall.SIGTERM} {
		guard := make(chan os.Signal, 1)
		signal.Notify(guard, sig)
		ctx, stop := cli.NotifyContext(stopSignals...)
		addrs := make(chan net.Addr, 1)
		onListen = func(addr net.Addr) { addrs <- addr }
		var out bytes.Buffer
		done := make(chan error, 1)
		go func() { done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-drain", "5s"}, &out) }()
		select {
		case <-addrs:
		case err := <-done:
			t.Fatalf("server exited before listening: %v", err)
		case <-time.After(10 * time.Second):
			t.Fatal("server never bound")
		}
		if err := self.Signal(sig); err != nil {
			t.Skipf("cannot send %v here: %v", sig, err)
		}
		<-guard
		select {
		case err := <-done:
			if err != nil || !strings.Contains(out.String(), "draining") || !strings.Contains(out.String(), "bye") {
				t.Errorf("%v: run returned %v, output %q", sig, err, out.String())
			}
		case <-time.After(10 * time.Second):
			t.Errorf("%v did not drain the server", sig)
		}
		stop()
		signal.Stop(guard)
		onListen = nil
	}
}
