package trace

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"time"
)

const msrSample = `128166372003061629,src1,1,Read,1024,4096,411
128166372003071629,src1,1,Write,8192,512,210
128166372003081629,src1,2,Read,0,4096,99
128166372003091629,src2,1,Read,512,1024,77
128166372003101629,src1,1,Read,16384,8192,300
`

func TestReadMSRBasic(t *testing.T) {
	tr, err := ReadAll(NewMSRSource(strings.NewReader(msrSample), MSROptions{Name: "src1.1", DiskNumber: -1}))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != 5 {
		t.Fatalf("records = %d, want 5", len(tr.Records))
	}
	// First arrival normalized to zero; second 1ms later (10^4 ticks).
	if tr.Records[0].Arrival != 0 {
		t.Fatalf("first arrival = %v", tr.Records[0].Arrival)
	}
	if tr.Records[1].Arrival != time.Millisecond {
		t.Fatalf("second arrival = %v, want 1ms", tr.Records[1].Arrival)
	}
	// Byte offsets/sizes become sectors.
	if tr.Records[0].LBA != 2 || tr.Records[0].Sectors != 8 {
		t.Fatalf("record 0 = %+v", tr.Records[0])
	}
	if !tr.Records[1].Write {
		t.Fatal("write record not flagged")
	}
	// Size rounds up to whole sectors.
	if tr.Records[3].Sectors != 2 {
		t.Fatalf("1024B size -> %d sectors", tr.Records[3].Sectors)
	}
	if tr.DiskSectors < tr.Records[4].LBA+tr.Records[4].Sectors {
		t.Fatal("DiskSectors not tracked")
	}
}

func TestReadMSRFilters(t *testing.T) {
	tr, err := ReadAll(NewMSRSource(strings.NewReader(msrSample), MSROptions{Hostname: "src1", DiskNumber: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != 3 {
		t.Fatalf("filtered records = %d, want 3", len(tr.Records))
	}
	tr, err = ReadAll(NewMSRSource(strings.NewReader(msrSample), MSROptions{DiskNumber: 2}))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != 1 {
		t.Fatalf("disk-2 records = %d, want 1", len(tr.Records))
	}
	tr, err = ReadAll(NewMSRSource(strings.NewReader(msrSample), MSROptions{DiskNumber: -1, MaxRecords: 2}))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != 2 {
		t.Fatalf("capped records = %d, want 2", len(tr.Records))
	}
}

func TestReadMSRClampsInversions(t *testing.T) {
	src := `1000000,h,0,Read,0,512,1
999000,h,0,Read,512,512,1
1002000,h,0,Read,1024,512,1
`
	tr, err := ReadAll(NewMSRSource(strings.NewReader(src), MSROptions{DiskNumber: -1}))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Records[1].Arrival != tr.Records[0].Arrival {
		t.Fatal("inversion not clamped")
	}
	if tr.Records[2].Arrival <= tr.Records[1].Arrival {
		t.Fatal("ordering lost after clamp")
	}
}

func TestReadMSRRejectsMalformed(t *testing.T) {
	cases := []string{
		"1,h,0,Read,0\n",        // too few fields
		"x,h,0,Read,0,512,1\n",  // bad timestamp
		"1,h,y,Read,0,512,1\n",  // bad disk number
		"1,h,0,Frob,0,512,1\n",  // bad op
		"1,h,0,Read,-1,512,1\n", // negative offset
		"1,h,0,Read,0,0,1\n",    // zero size
	}
	for i, c := range cases {
		if _, err := ReadAll(NewMSRSource(strings.NewReader(c), MSROptions{DiskNumber: -1})); !errors.Is(err, ErrBadFormat) {
			t.Fatalf("case %d: err = %v, want ErrBadFormat", i, err)
		}
	}
	// Input without records is not malformed: the source just ends.
	for _, c := range []string{"", "# only a comment\n"} {
		var rec Record
		if err := NewMSRSource(strings.NewReader(c), MSROptions{DiskNumber: -1}).Next(&rec); err != io.EOF {
			t.Fatalf("%q: Next = %v, want io.EOF", c, err)
		}
	}
}

func TestReadMSRToleratesCommentsAndBlanks(t *testing.T) {
	src := "# header comment\n\n128166372003061629,h,0,read,0,512,1\n"
	tr, err := ReadAll(NewMSRSource(strings.NewReader(src), MSROptions{DiskNumber: -1}))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != 1 {
		t.Fatalf("records = %d", len(tr.Records))
	}
}

// tpcMSR renders a TPC-C-style stream as MSR CSV the way the replay
// benchmarks fabricate their files: TPCdisk66 uplifted ×4 onto a 300 GB
// drive (so offsets run to 12 digits), written by WriteMSR.
func tpcMSR(tb testing.TB, dur time.Duration) []byte {
	tb.Helper()
	tpc, ok := ByName("TPCdisk66")
	if !ok {
		tb.Fatal("catalog has no TPCdisk66")
	}
	up, err := Uplift(tpc.Source(1, dur), UpliftOptions{Profile: ProfileHDD300, TimeScale: 4, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteMSR(&buf, up, "tpcc", 66); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkMSRDecode measures the streaming MSR decoder per record
// (ns/op is ns per record) over about 21k TPC-style lines, rewinding
// the source whenever it drains.
func BenchmarkMSRDecode(b *testing.B) {
	data := tpcMSR(b, 30*time.Second)
	src := NewMSRSource(bytes.NewReader(data), MSROptions{DiskNumber: -1})
	n, _, err := Count(src)
	if err != nil || n == 0 {
		b.Fatalf("fixture: %d records, err %v", n, err)
	}
	b.SetBytes(int64(len(data)) / n)
	b.ReportAllocs()
	var rec Record
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := src.Next(&rec); err != nil {
			if err != io.EOF {
				b.Fatal(err)
			}
			if err := src.Reset(); err != nil {
				b.Fatal(err)
			}
			i--
		}
	}
}

// TestMSRSourceSteadyStateAllocs pins the decoder's accept path: after
// warm-up, a full pass over a TPC-style file, filters on, allocates
// nothing per record.
func TestMSRSourceSteadyStateAllocs(t *testing.T) {
	data := tpcMSR(t, 2*time.Second)
	src := NewMSRSource(bytes.NewReader(data), MSROptions{Hostname: "TPCC", DiskNumber: 66})
	want, _, err := Count(src)
	if err != nil || want == 0 {
		t.Fatalf("fixture: %d records, err %v", want, err)
	}
	var rec Record
	allocs := testing.AllocsPerRun(3, func() {
		if err := src.Reset(); err != nil {
			t.Fatal(err)
		}
		n := int64(0)
		for src.Next(&rec) == nil {
			n++
		}
		if n != want {
			t.Fatalf("pass read %d records, want %d", n, want)
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocs per pass over %d records, want 0", allocs, want)
	}
}
