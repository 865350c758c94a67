// Package cli holds the few lines every cmd/* main would otherwise
// repeat: the fatal-error exit, writing a result to a file (as JSON or
// through a writer) or to standard output, the CPU profile, the -workers
// check and the -progress line. Messages are prefixed with the program's
// name, as the flag package's own are.
package cli

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"
)

// notef prints "<program>: message" on standard error.
func notef(format string, args ...any) {
	fmt.Fprintf(os.Stderr, filepath.Base(os.Args[0])+": "+format+"\n", args...)
}

// Fatalf prints "<program>: message" on standard error and exits 1.
func Fatalf(format string, args ...any) {
	notef(format, args...)
	os.Exit(1)
}

// Stdout runs write on standard output and exits 1 if it fails; what
// names the output in the message.
func Stdout(what string, write func(io.Writer) error) {
	if err := write(os.Stdout); err != nil {
		Fatalf("writing %s: %v", what, err)
	}
}

// WriteFile creates path, runs write on it and closes it. The error
// names the path.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// WriteJSON writes v to path as indented JSON.
func WriteJSON(path string, v any) error {
	return WriteFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	})
}

// Report writes a side output (the -metrics dump) to path, "-" meaning
// standard error, and notes where it went. A failure is reported but is
// not fatal: the run's main output is already out.
func Report(what, path string, write func(io.Writer) error) {
	if path == "-" {
		if err := write(os.Stderr); err != nil {
			notef("writing %s: %v", what, err)
		}
		return
	}
	if err := WriteFile(path, write); err != nil {
		notef("%s: %v", what, err)
		return
	}
	notef("%s written to %s", what, path)
}

// CPUProfile starts a CPU profile into path and returns the function
// that stops it and closes the file. An empty path profiles nothing.
func CPUProfile(path string) (stop func()) {
	if path == "" {
		return func() {}
	}
	f, err := os.Create(path)
	if err != nil {
		Fatalf("%v", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		Fatalf("starting CPU profile: %v", err)
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			notef("%v", err)
			return
		}
		notef("CPU profile written to %s", path)
	}
}

// Workers checks a -workers value: a negative one is fatal, and one
// beyond 8x GOMAXPROCS — where extra goroutines only add scheduling
// overhead — is clamped with a note. It returns the count to use.
func Workers(n int) int {
	if n < 0 {
		Fatalf("-workers must be >= 0 (got %d)", n)
	}
	if max := 8 * runtime.GOMAXPROCS(0); n > max {
		notef("clamping -workers %d to %d (8x GOMAXPROCS)", n, max)
		return max
	}
	return n
}

// Progress returns a job-done callback for a pool of total jobs that
// keeps one "<program>: done/total noun (elapsed, ETA)" line current on
// standard error, rewritten at most ten times a second and ended once
// every job is done. The pool calls it from several goroutines at once,
// so it serializes with a mutex.
func Progress(total int, noun string) func(int) {
	var mu sync.Mutex
	done := 0
	start := time.Now()
	var last time.Time
	return func(int) {
		mu.Lock()
		defer mu.Unlock()
		done++
		now := time.Now()
		if done < total && now.Sub(last) < 100*time.Millisecond {
			return
		}
		last = now
		elapsed := now.Sub(start)
		eta := ""
		if done < total {
			remaining := time.Duration(float64(elapsed) / float64(done) * float64(total-done))
			eta = ", ETA " + remaining.Round(time.Second).String()
		}
		fmt.Fprintf(os.Stderr, "\r%s: %d/%d %s (%s elapsed%s)   ",
			filepath.Base(os.Args[0]), done, total, noun, elapsed.Round(time.Second), eta)
		if done == total {
			fmt.Fprintln(os.Stderr)
		}
	}
}
