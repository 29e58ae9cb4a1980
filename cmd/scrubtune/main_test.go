package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunWithCatalogTrace(t *testing.T) {
	// Keep it short: a 20-minute HPc3t3d0 profile tunes in well under a
	// second thanks to the closed-form interval simulator.
	err := run([]string{"-trace", "HPc3t3d0", "-dur", "20m", "-mean-slowdown", "2ms"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownTrace(t *testing.T) {
	if err := run([]string{"-trace", "nope"}); err == nil {
		t.Fatal("unknown trace accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestRunMissingFile(t *testing.T) {
	if err := run([]string{"-file", "/nonexistent/trace.csv"}); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestRunWithCSVFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csv")
	var b strings.Builder
	b.WriteString("arrival_us,op,lba,sectors\n")
	// A sparse workload with generous gaps: easily tunable.
	for i := 0; i < 3000; i++ {
		b.WriteString(itoa(int64(i)*200_000) + ",R," + itoa(int64(i)*1000) + ",16\n")
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-file", path, "-mean-slowdown", "5ms"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithMSRFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.msr")
	var b strings.Builder
	for i := 0; i < 3000; i++ {
		ticks := int64(128166372003061629) + int64(i)*2_000_000 // 200ms apart
		b.WriteString(itoa(ticks) + ",host,0,Read," + itoa(int64(i)*512000) + ",8192,100\n")
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-file", path, "-format", "msr", "-mean-slowdown", "5ms"}); err != nil {
		t.Fatal(err)
	}
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [24]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
