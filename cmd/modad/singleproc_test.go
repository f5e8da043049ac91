package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"autoloop/internal/control"
)

var (
	doneRe      = regexp.MustCompile(`modad: done; (\d+) series, (\d+) samples stored`)
	recoveredRe = regexp.MustCompile(`modad: recovered from \S+: snapshot @ seq \d+ \+ \d+ replayed records \((\d+) series, (\d+) samples\)`)
	servingRe   = regexp.MustCompile(`control\.v1 envelopes on (\S+) \(speed \d+x, (\d+) loops\)`)
)

// TestSingleProcessRecovery boots the single role as a real process with a
// write-ahead log, lets it run to its -duration and shut down (final
// snapshot), then restarts it on the same directory without -specs: the
// restart must report recovering every series and bring back the first
// run's two loops, by name, from the snapshot rather than the default fleet.
func TestSingleProcessRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test skipped in -short mode")
	}
	bin := buildModad(t)
	logDir := os.Getenv("MODAD_TEST_LOGDIR")
	if logDir == "" {
		logDir = t.TempDir()
	} else if err := os.MkdirAll(logDir, 0o755); err != nil {
		t.Fatal(err)
	}
	walDir := filepath.Join(t.TempDir(), "wal")
	specs := filepath.Join(t.TempDir(), "specs.json")
	if err := os.WriteFile(specs, []byte(`[
  {"case": "power", "name": "cooling", "period": "1m"},
  {"case": "ost", "name": "storage", "period": "1m"}
]`), 0o644); err != nil {
		t.Fatal(err)
	}

	first := startProc(t, logDir, "single-first", bin,
		"-addr=127.0.0.1:0", "-wal-dir="+walDir, "-specs="+specs,
		"-duration=2s", "-speed=600")
	waitExit(t, first, 60*time.Second)
	firstLog := readLog(t, filepath.Join(logDir, "single-first.log"))
	m := doneRe.FindStringSubmatch(firstLog)
	if m == nil {
		t.Fatalf("first run printed no done line; log:\n%s", firstLog)
	}
	series := m[1]
	if series == "0" || m[2] == "0" {
		t.Fatalf("first run stored nothing: %s", m[0])
	}

	startProc(t, logDir, "single-restart", bin,
		"-addr=127.0.0.1:0", "-wal-dir="+walDir, "-duration=0", "-speed=600")
	restartLog := filepath.Join(logDir, "single-restart.log")
	var addr string
	deadline := time.Now().Add(30 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("restart never started serving; log:\n%s", readLog(t, restartLog))
		}
		if m := servingRe.FindStringSubmatch(readLog(t, restartLog)); m != nil {
			if m[2] != "2" {
				t.Fatalf("restart serves %s loops, want 2: %s", m[2], m[0])
			}
			addr = m[1]
		}
		time.Sleep(100 * time.Millisecond)
	}
	log := readLog(t, restartLog)
	rm := recoveredRe.FindStringSubmatch(log)
	if rm == nil {
		t.Fatalf("restart printed no recovered line; log:\n%s", log)
	}
	if rm[1] != series {
		t.Errorf("restart recovered %s series, first run stored %s", rm[1], series)
	}

	rep, err := controlRequest(addr, control.Request{Op: control.OpList, ID: "list"})
	if err != nil || !rep.OK {
		t.Fatalf("list: %v (%+v)", err, rep)
	}
	var loops []string
	for _, l := range rep.Loops {
		loops = append(loops, fmt.Sprintf("%s/%s:%s", l.Case, l.Group, l.State))
	}
	sort.Strings(loops)
	if got, want := strings.Join(loops, " "), "ost/storage:running power/cooling:running"; got != want {
		t.Errorf("restarted fleet = %q, want %q", got, want)
	}
}

// waitExit waits for a process that stops on its own, failing the test if
// it does not exit cleanly within timeout.
func waitExit(t *testing.T, cmd *exec.Cmd, timeout time.Duration) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s exited: %v", cmd.Path, err)
		}
	case <-time.After(timeout):
		_ = cmd.Process.Kill()
		t.Fatalf("%s still running after %v", cmd.Path, timeout)
	}
}

func readLog(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestWorkerRejectsUnusedFlags starts a worker with -wal-dir: a worker keeps
// no journal, so it must refuse the flag at startup, naming it, with a
// non-zero exit, and create no directory.
func TestWorkerRejectsUnusedFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test skipped in -short mode")
	}
	bin := buildModad(t)
	walDir := filepath.Join(t.TempDir(), "wal")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, bin, "-role=worker", "-join=127.0.0.1:1",
		"-wal-dir="+walDir, "-duration=1s").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("worker with -wal-dir: %v, want a non-zero exit; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), "-role=worker does not take -wal-dir") {
		t.Fatalf("worker error does not name -wal-dir; output:\n%s", out)
	}
	if _, err := os.Stat(walDir); !os.IsNotExist(err) {
		t.Fatalf("worker created %s (stat: %v)", walDir, err)
	}
}
