package trace

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestWriteReadRoundTrip(t *testing.T) {
	in := &Trace{
		Name:        "test",
		DiskSectors: 1000000,
		Records: []Record{
			{Arrival: 0, LBA: 100, Sectors: 8},
			{Arrival: 1500 * time.Microsecond, LBA: 200, Sectors: 16, Write: true},
			{Arrival: 2 * time.Second, LBA: 0, Sectors: 1},
		},
	}
	var buf bytes.Buffer
	if err := Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadAll(NewNativeSource(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if out.Name != in.Name || out.DiskSectors != in.DiskSectors {
		t.Fatalf("meta = %q/%d", out.Name, out.DiskSectors)
	}
	if len(out.Records) != len(in.Records) {
		t.Fatalf("got %d records", len(out.Records))
	}
	for i := range in.Records {
		if out.Records[i] != in.Records[i] {
			t.Fatalf("record %d: %+v != %+v", i, out.Records[i], in.Records[i])
		}
	}
}

func TestReadRejectsMalformed(t *testing.T) {
	cases := []string{
		"",                                     // no header
		"bogus header\n1,R,0,8\n",              // wrong header
		"arrival_us,op,lba,sectors\n1,R,0\n",   // missing field
		"arrival_us,op,lba,sectors\nx,R,0,8\n", // bad arrival
		"arrival_us,op,lba,sectors\n1,Q,0,8\n", // bad op
		"arrival_us,op,lba,sectors\n1,R,x,8\n", // bad lba
		"arrival_us,op,lba,sectors\n1,R,0,x\n", // bad sectors
		"arrival_us,op,lba,sectors\n1,R,-5,8\n",
		"arrival_us,op,lba,sectors\n1,R,0,0\n",
		"arrival_us,op,lba,sectors\n5,R,0,8\n1,R,0,8\n", // time travel
	}
	for i, c := range cases {
		if _, err := ReadAll(NewNativeSource(strings.NewReader(c))); !errors.Is(err, ErrBadFormat) {
			t.Fatalf("case %d: err = %v, want ErrBadFormat", i, err)
		}
	}
}

func TestReadToleratesCommentsAndBlank(t *testing.T) {
	src := "# hello\n\narrival_us,op,lba,sectors\n# mid comment\n10,w,5,8\n"
	tr, err := ReadAll(NewNativeSource(strings.NewReader(src)))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != 1 || !tr.Records[0].Write {
		t.Fatalf("records = %+v", tr.Records)
	}
}

func TestTraceAccessors(t *testing.T) {
	tr := &Trace{Records: []Record{
		{Arrival: time.Hour + time.Minute},
		{Arrival: 3 * time.Hour},
	}}
	if tr.Duration() != 3*time.Hour {
		t.Fatalf("Duration = %v", tr.Duration())
	}
	counts := tr.HourlyCounts()
	if len(counts) != 4 || counts[1] != 1 || counts[3] != 1 {
		t.Fatalf("HourlyCounts = %v", counts)
	}
	arr := tr.Arrivals()
	if len(arr) != 2 || arr[0] != time.Hour+time.Minute {
		t.Fatalf("Arrivals = %v", arr)
	}
	empty := &Trace{}
	if empty.Duration() != 0 || empty.HourlyCounts() != nil {
		t.Fatal("empty trace accessors wrong")
	}
}
