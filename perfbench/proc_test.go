package main

import (
	"os"
	"testing"
	"time"
)

func TestParseStatCPU(t *testing.T) {
	// The command name contains spaces and a ')' — fields are counted
	// from the last ')'. utime=250 stime=50 ticks.
	stat := []byte("4242 (serve (x) y) S 1 4242 4242 0 -1 4194560 100 0 0 0 250 50 0 0 20 0 7 0 12345 1000000 500 18446744073709551615\n")
	got, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * time.Second; got != want {
		t.Fatalf("cpu = %v, want %v", got, want)
	}
	if _, err := parseStatCPU([]byte("4242 (serve) S 1")); err == nil {
		t.Fatal("short stat must be an error")
	}
}

func TestParseStatusKiB(t *testing.T) {
	status := []byte("Name:\tserve\nVmPeak:\t  900000 kB\nVmHWM:\t   24776 kB\nVmRSS:\t   20000 kB\n")
	got, err := parseStatusKiB(status, "VmHWM")
	if err != nil || got != 24776 {
		t.Fatalf("VmHWM = %d, %v", got, err)
	}
	if _, err := parseStatusKiB(status, "VmSwap"); err == nil {
		t.Fatal("missing key must be an error")
	}
}

func TestProcReadsSelf(t *testing.T) {
	if _, err := procCPU(os.Getpid()); err != nil {
		t.Fatal(err)
	}
	if kib, err := procPeakRSS(os.Getpid()); err != nil || kib <= 0 {
		t.Fatalf("peak rss %d, %v", kib, err)
	}
}
