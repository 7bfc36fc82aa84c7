package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The daemon's lifecycle, seen from outside: start on 127.0.0.1:0, read the
// announced port, wait for /readyz, and end with SIGTERM and a checked
// drain. CPU and peak memory come from /proc/<pid>, /metrics is scraped as
// text: nothing is read from inside the program.

// daemonFlags are the flags every benchmark daemon runs with (recorded in
// the run stamp); everything else is the daemon's default.
var daemonFlags = []string{"-addr", "127.0.0.1:0"}

type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	out  *syncBuffer
	done chan struct{}
	err  error // cmd.Wait's result, set before done closes
}

// syncBuffer collects the daemon's stdout and stderr.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var announce = regexp.MustCompile(`listening on (http://127\.0\.0\.1:\d+)`)

// startDaemon starts bin and returns once /readyz answers 200, with the time
// from process start to that answer.
func startDaemon(bin string, client *http.Client) (*daemon, time.Duration, error) {
	start := time.Now()
	d := &daemon{cmd: exec.Command(bin, daemonFlags...), out: &syncBuffer{}, done: make(chan struct{})}
	d.cmd.Stdout = d.out
	d.cmd.Stderr = d.out
	// Kill the daemon should the benchmark die without stopping it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.done)
	}()
	deadline := start.Add(20 * time.Second)
	for d.base == "" {
		if m := announce.FindStringSubmatch(d.out.String()); m != nil {
			d.base = m[1]
			break
		}
		if err := d.waitOrExit(deadline); err != nil {
			return nil, 0, err
		}
	}
	for {
		resp, err := client.Get(d.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drain for connection reuse
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		if err := d.waitOrExit(deadline); err != nil {
			return nil, 0, err
		}
	}
}

// waitOrExit sleeps one poll interval; it fails when the daemon exited or
// the deadline passed (killing the daemon in the latter case).
func (d *daemon) waitOrExit(deadline time.Time) error {
	select {
	case <-d.done:
		return fmt.Errorf("daemon exited before ready (%v): %s", d.err, d.out.String())
	case <-time.After(time.Millisecond):
	}
	if time.Now().After(deadline) {
		d.kill()
		return fmt.Errorf("daemon not ready after 20s: %s", d.out.String())
	}
	return nil
}

func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // already exited is fine
	<-d.done
}

// stop sends SIGTERM and waits for the drain. It fails unless the daemon
// exits 0 after reporting that every in-flight request finished.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return fmt.Errorf("signaling daemon: %w", err)
	}
	select {
	case <-d.done:
	case <-time.After(60 * time.Second):
		d.kill()
		return fmt.Errorf("daemon did not exit 60s after SIGTERM")
	}
	if d.err != nil {
		return fmt.Errorf("daemon exit: %v: %s", d.err, d.out.String())
	}
	if !strings.Contains(d.out.String(), "all in-flight requests finished") {
		return fmt.Errorf("daemon drain was not clean: %s", d.out.String())
	}
	return nil
}

// cpu returns the daemon's user+system CPU time so far.
func (d *daemon) cpu() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("parsing /proc stat: %w", err)
	}
	return time.Duration(ut+st) * time.Second / time.Duration(clockTicks()), nil
}

// memory returns the daemon's resident set size and its high-water mark
// (VmRSS, VmHWM), in bytes.
func (d *daemon) memory() (rss, hwm int64, err error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok || (k != "VmRSS" && k != "VmHWM") {
			continue
		}
		kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("parsing %s: %w", k, err)
		}
		if k == "VmRSS" {
			rss = kb << 10
		} else {
			hwm = kb << 10
		}
	}
	if rss == 0 || hwm == 0 {
		return 0, 0, fmt.Errorf("no VmRSS or VmHWM in /proc status")
	}
	return rss, hwm, nil
}

// hostCPU returns the host's stolen and total CPU ticks so far, from the
// first line of /proc/stat (zeros when it cannot be read).
func hostCPU() (steal, total int64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	// cpu user nice system idle iowait irq softirq steal [guest guest_nice,
	// already counted in user and nice]
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 {
		return 0, 0
	}
	for i, v := range f[1:9] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// clockTicks reads the kernel's USER_HZ from the auxiliary vector
// (AT_CLKTCK), falling back to the Linux default of 100.
func clockTicks() int64 {
	raw, err := os.ReadFile("/proc/self/auxv")
	if err != nil {
		return 100
	}
	const atClkTck = 17
	for i := 0; i+16 <= len(raw); i += 16 {
		if binary.LittleEndian.Uint64(raw[i:]) == atClkTck {
			return int64(binary.LittleEndian.Uint64(raw[i+8:]))
		}
	}
	return 100
}

// scrapeMetrics reads /metrics into series -> value (series is the metric
// name with its label block, as printed).
func scrapeMetrics(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading /metrics: %w", err)
	}
	return out, nil
}

// delta is after[k] - before[k] for one series.
func delta(before, after map[string]float64, k string) float64 { return after[k] - before[k] }
