package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat. It
// is 100 on every Linux architecture Go supports.
const clockTicks = 100

// parseStatCPU returns utime+stime from the contents of /proc/<pid>/stat.
// The command name (field 2) is parenthesised and may itself contain
// spaces and parentheses, so fields are counted from the last ')'.
func parseStatCPU(stat []byte) (time.Duration, error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command name")
	}
	f := strings.Fields(string(stat[i+1:]))
	// After the name: state(3) ppid(4) ... utime(14) stime(15).
	const utime, stime = 14 - 3, 15 - 3
	if len(f) <= stime {
		return 0, fmt.Errorf("proc stat: %d fields after the name", len(f))
	}
	u, err := strconv.ParseInt(f[utime], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	s, err := strconv.ParseInt(f[stime], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return time.Duration(u+s) * time.Second / clockTicks, nil
}

// parseStatusKiB returns the value of a "Key:   1234 kB" line of
// /proc/<pid>/status, in KiB.
func parseStatusKiB(status []byte, key string) (int64, error) {
	sc := bufio.NewScanner(bytes.NewReader(status))
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, key+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed %q", line)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status: no %s line", key)
}

// procCPU reads a live process's accumulated CPU time.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(b)
}

// procPeakRSS reads a live process's peak resident set (VmHWM) in KiB.
func procPeakRSS(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseStatusKiB(b, "VmHWM")
}
