package cli

import (
	"os"
	"os/signal"
	"syscall"
	"testing"
	"time"
)

// signalSelf sends sig to this process and reports whether done closed.
// A guard channel catches sig too, so a signal NotifyContext missed fails
// the test instead of killing it.
func signalSelf(t *testing.T, sig os.Signal, done <-chan struct{}) bool {
	t.Helper()
	guard := make(chan os.Signal, 1)
	signal.Notify(guard, sig)
	defer signal.Stop(guard)
	p, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Signal(sig); err != nil {
		t.Skipf("cannot send %v here: %v", sig, err)
	}
	<-guard
	select {
	case <-done:
		return true
	case <-time.After(5 * time.Second):
		return false
	}
}

// TestNotifyContext: os.Interrupt always cancels the context, and the
// extra signals cancel it too.
func TestNotifyContext(t *testing.T) {
	for _, tc := range []struct {
		extra []os.Signal
		send  os.Signal
	}{
		{nil, os.Interrupt},
		{[]os.Signal{syscall.SIGTERM}, os.Interrupt},
		{[]os.Signal{syscall.SIGTERM}, syscall.SIGTERM},
	} {
		ctx, stop := NotifyContext(tc.extra...)
		if !signalSelf(t, tc.send, ctx.Done()) {
			t.Errorf("NotifyContext(%v): %v did not cancel the context", tc.extra, tc.send)
		}
		stop()
	}
}
