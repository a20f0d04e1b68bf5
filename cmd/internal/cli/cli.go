// Package cli is the process plumbing the splitmfg commands share: the
// signal-bound context, the exit status, and the one-line error report.
// It holds no flags and no job logic; those stay in each command.
package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
)

// Main runs run on the process arguments and stdout under
// NotifyContext(extra...), then exits with ExitCode's status.
func Main(name string, run func(ctx context.Context, args []string, stdout io.Writer) error, extra ...os.Signal) {
	ctx, stop := NotifyContext(extra...)
	code := ExitCode(name, run(ctx, os.Args[1:], os.Stdout), os.Stderr)
	stop()
	os.Exit(code)
}

// NotifyContext returns a context that os.Interrupt and the extra signals
// cancel, and the function that stops catching them.
func NotifyContext(extra ...os.Signal) (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), append([]os.Signal{os.Interrupt}, extra...)...)
}

// ExitCode prints err on stderr as "name: err", unless fs.Parse already
// printed it with the usage text, and returns the exit status: 0 on
// success and for -h, 2 for a flag error (the flag package's convention),
// 1 otherwise.
func ExitCode(name string, err error, stderr io.Writer) int {
	switch e := err.(type) {
	case nil:
		return 0
	case ParseError:
		if e.Err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	fmt.Fprintln(stderr, name+":", err)
	return 1
}

// ParseError is an error fs.Parse returned after printing it.
type ParseError struct{ Err error }

func (e ParseError) Error() string { return e.Err.Error() }
