package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestAnalyzeCatalogTrace(t *testing.T) {
	if err := run([]string{"-trace", "TPCdisk66", "-dur", "30s"}); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyzeUnknownTrace(t *testing.T) {
	if err := run([]string{"-trace", "ghost"}); err == nil {
		t.Fatal("unknown trace accepted")
	}
}

func TestAnalyzeBadFlag(t *testing.T) {
	if err := run([]string{"-zzz"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestAnalyzeCSVFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csv")
	content := "arrival_us,op,lba,sectors\n"
	for i := 0; i < 500; i++ {
		content += itoa(int64(i)*100000) + ",R," + itoa(int64(i)*100) + ",8\n"
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-file", path}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-file", "/no/such/file"}); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestAnalyzeCSVFileMetadataName checks that a native CSV's "# trace:"
// metadata name, not the file path, heads the report.
func TestAnalyzeCSVFileMetadataName(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.csv")
	content := "# trace: tpcc-east disk_sectors: 1000000\narrival_us,op,lba,sectors\n"
	for i := 0; i < 500; i++ {
		content += itoa(int64(i)*100000) + ",W," + itoa(int64(i)*100) + ",8\n"
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := runTo(&out, []string{"-file", path}); err != nil {
		t.Fatal(err)
	}
	if first, _, _ := strings.Cut(out.String(), "\n"); first != "trace: tpcc-east" {
		t.Fatalf("report starts %q, want the metadata name", first)
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
