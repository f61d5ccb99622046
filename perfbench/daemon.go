package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"

	"repro/internal/obsv"
)

// daemon is one cmd/serve child process.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	started time.Time
	done    chan struct{} // closed once Wait has returned
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon execs the serve binary on a fresh loopback port with the
// given flags, appending its output to logPath.
func startDaemon(bin string, flags []string, logPath string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, flags...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon dies with the benchmark, however the benchmark ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, base: "http://" + addr, started: time.Now(), done: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	go func() {
		_ = cmd.Wait() // the exit status of a killed daemon carries no information
		logf.Close()
		close(d.done)
	}()
	return d, nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// waitHealthy polls /healthz until it answers 200 and returns the time
// since the process was started.
func (d *daemon) waitHealthy(c *http.Client, timeout time.Duration) (time.Duration, error) {
	deadline := d.started.Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			return 0, fmt.Errorf("serve exited before becoming healthy")
		default:
		}
		resp, err := c.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(d.started), nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return 0, fmt.Errorf("serve not healthy within %v", timeout)
}

// kill sends SIGKILL and waits for the process to be reaped.
func (d *daemon) kill() {
	_ = d.cmd.Process.Signal(syscall.SIGKILL) // already gone is fine
	<-d.done
}

// newClient returns a client holding at most one connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// serverStats mirrors the parts of GET /stats the benchmark reads.
type serverStats struct {
	Ingested        int64 `json:"ingested"`
	Sequenced       int64 `json:"sequenced"`
	LateDropped     int64 `json:"late_dropped"`
	ReorderOverflow int64 `json:"reorder_overflow"`
	Retraining      bool  `json:"retraining"`
	Watermark       int64 `json:"watermark_ms"`
	NextRetrain     int64 `json:"next_retrain_ms"`
	Queues          struct {
		Sequencer int   `json:"sequencer"`
		Shards    []int `json:"shards"`
		Collector int   `json:"collector"`
	} `json:"queues"`
	Recovery *struct {
		ResumeSeq uint64 `json:"resume_seq"`
	} `json:"recovery"`
	Retrains []struct {
		Err string `json:"err"`
	} `json:"retrains"`
}

// trained reports whether a training pass has succeeded: the first rule
// set is live.
func (s serverStats) trained() bool {
	for _, r := range s.Retrains {
		if r.Err == "" {
			return true
		}
	}
	return false
}

func (s serverStats) idle() bool {
	if s.Queues.Sequencer != 0 || s.Queues.Collector != 0 || s.Retraining {
		return false
	}
	for _, q := range s.Queues.Shards {
		if q != 0 {
			return false
		}
	}
	return true
}

func getStats(c *http.Client, base string) (serverStats, error) {
	var s serverStats
	resp, err := c.Get(base + "/stats")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("GET /stats: HTTP %d", resp.StatusCode)
	}
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

// getMetrics scrapes /metrics through the strict exposition parser.
func getMetrics(c *http.Client, base string) (map[string]float64, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	return obsv.ParseText(resp.Body)
}

// wireWarning mirrors one GET /warnings entry.
type wireWarning struct {
	TimeMs     int64  `json:"time_ms"`
	DeadlineMs int64  `json:"deadline_ms"`
	Source     string `json:"source"`
	Rule       string `json:"rule"`
	Target     int    `json:"target"`
}

func getWarnings(c *http.Client, base string) ([]wireWarning, error) {
	resp, err := c.Get(base + "/warnings?n=256")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /warnings: HTTP %d", resp.StatusCode)
	}
	var w []wireWarning
	return w, json.NewDecoder(resp.Body).Decode(&w)
}

// postBatch sends one batch and returns the status and how many events
// the daemon accepted.
func postBatch(c *http.Client, base string, body []byte) (int, int, error) {
	resp, err := c.Post(base+"/ingest/batch", "text/plain", bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var r struct {
		Accepted int `json:"accepted"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		return resp.StatusCode, 0, fmt.Errorf("ingest response: %w", err)
	}
	return resp.StatusCode, r.Accepted, nil
}
