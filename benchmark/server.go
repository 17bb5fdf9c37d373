package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildSaserve compiles the shipping binary from the checkout's source into
// the benchmark's output directory.
func buildSaserve(root, outDir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(outDir, "saserve"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/saserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/saserve: %w\n%s", err, out)
	}
	return bin, nil
}

// reaper makes sure no child outlives the harness: every started server is
// registered here, and an interrupt kills whatever is still registered
// before the process exits.
type reaper struct {
	mu   sync.Mutex
	live map[*server]struct{}
}

func newReaper() *reaper {
	r := &reaper{live: map[*server]struct{}{}}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "benchmark: %v, stopping children\n", s)
		r.killAll()
		os.Exit(1)
	}()
	return r
}

func (r *reaper) killAll() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for s := range r.live {
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

// server is one child saserve in its shipping configuration.
type server struct {
	cmd    *exec.Cmd
	addr   string
	setup  time.Duration // exec to address file published
	stderr *os.File
	reaper *reaper
	exited chan struct{} // closed once the child has been waited for
	once   sync.Once
}

// startServer launches saserve with the dataset flags and nothing else,
// and waits for it to publish its address. tag names its files in outDir;
// stderr of successive servers with one tag accumulates in one file.
func startServer(r *reaper, bin, outDir, tag string, seed uint64) (*server, error) {
	addrFile := filepath.Join(outDir, "saserve."+tag+".addr")
	if err := os.Remove(addrFile); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	stderr, err := os.OpenFile(filepath.Join(outDir, "saserve."+tag+".stderr"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-rows", strconv.Itoa(datasetRows), "-vertices", strconv.Itoa(datasetVertices),
		"-seed", strconv.FormatUint(datasetSeed(seed), 10))
	cmd.Stderr = stderr
	// If the harness is killed outright the kernel takes the child with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &server{cmd: cmd, stderr: stderr, reaper: r, exited: make(chan struct{})}

	// Start and registration are one step under the reaper's lock, so a
	// signal cannot land between them and miss the child.
	r.mu.Lock()
	start := time.Now()
	err = cmd.Start()
	if err == nil {
		r.live[s] = struct{}{}
	}
	r.mu.Unlock()
	if err != nil {
		stderr.Close()
		return nil, fmt.Errorf("starting saserve: %w", err)
	}
	go func() {
		_ = cmd.Wait()
		close(s.exited)
	}()

	deadline := time.After(60 * time.Second)
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-s.exited:
			s.release()
			return nil, fmt.Errorf("saserve exited during set-up, see %s", stderr.Name())
		case <-deadline:
			s.stop()
			return nil, fmt.Errorf("saserve published no address within 60s, see %s", stderr.Name())
		case <-tick.C:
			if b, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
				s.setup = time.Since(start)
				s.addr = strings.TrimSpace(string(b))
				return s, nil
			}
		}
	}
}

// stop ends the child, politely first, and returns once it has been
// reaped. Calling it again is harmless.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(3 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
	s.release()
}

func (s *server) release() {
	s.once.Do(func() {
		s.reaper.mu.Lock()
		delete(s.reaper.live, s)
		s.reaper.mu.Unlock()
		s.stderr.Close()
	})
}

// peakRSSMB reads the child's resident-set high-water mark; call it before
// stop.
func (s *server) peakRSSMB() (float64, error) {
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// stderrPanics returns the lines of a captured stderr file that report a
// Go panic or runtime crash.
func stderrPanics(path string) ([]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bad []string
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "panic:") || strings.HasPrefix(line, "fatal error:") || strings.Contains(line, "http: panic serving") {
			bad = append(bad, line)
		}
	}
	return bad, nil
}
