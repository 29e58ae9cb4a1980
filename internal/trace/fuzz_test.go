package trace

import (
	"strings"
	"testing"
	"time"
)

// FuzzParseRecord drives the native CSV decoder with arbitrary record
// lines under a valid header and checks that every accepted record
// satisfies the invariants the rest of the system relies on:
// non-negative arrival, a valid [LBA, LBA+Sectors) extent that does not
// overflow int64.
func FuzzParseRecord(f *testing.F) {
	seeds := []string{
		"0,R,2048,8",
		"1000000,W,0,1",
		"128166372003,r,1024,4096",
		"-1,R,0,8",
		"9223372036854775807,R,0,8",
		"9223372036854,R,0,8",
		"1,X,0,8",
		"1,R,0,0",
		"1,R,-5,8",
		"1,R,9223372036854775807,9223372036854775807",
		"1,R,8",
		"a,b,c,d",
		"",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		tr, err := readNative(header + "\n" + line + "\n")
		if err != nil {
			return // malformed input must error, never panic
		}
		for _, rec := range tr.Records {
			if rec.Arrival < 0 {
				t.Fatalf("accepted negative arrival %v from %q", rec.Arrival, line)
			}
			if rec.LBA < 0 || rec.Sectors <= 0 {
				t.Fatalf("accepted invalid extent [%d,+%d) from %q", rec.LBA, rec.Sectors, line)
			}
			if rec.LBA+rec.Sectors < rec.LBA {
				t.Fatalf("extent end overflows for %q", line)
			}
		}
	})
}

// FuzzParseMSR drives the whole MSR-format reader with arbitrary input
// and checks the output invariants: monotone non-negative arrivals and
// extents contained in the reported disk size.
func FuzzParseMSR(f *testing.F) {
	seeds := []string{
		msrSample,
		"128166372003061629,src1,1,Read,1024,4096,411\n",
		"128166372003061629,src1,1,Write,0,512,1\n",
		"0,h,0,Read,0,1,0\n",
		"-1,h,0,Read,0,1,0\n",
		"9223372036854775807,h,0,Read,0,1,0\n0,h,0,Read,0,1,0\n",
		"0,h,0,Read,0,9223372036854775807,0\n",
		"0,h,0,Read,9223372036854775806,9223372036854775806,0\n",
		"1,h,x,Read,0,1,0\n",
		"1,h,0,Trim,0,1,0\n",
		"# comment\n\n" + msrSample,
		"not,a,trace\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data string) {
		tr, err := ReadAll(NewMSRSource(strings.NewReader(data), MSROptions{Name: "fuzz", DiskNumber: -1}))
		if err != nil {
			return // malformed input must error, never panic
		}
		var prev time.Duration
		for i, r := range tr.Records {
			if r.Arrival < prev {
				t.Fatalf("record %d: arrival %v went backwards (prev %v)", i, r.Arrival, prev)
			}
			prev = r.Arrival
			if r.LBA < 0 || r.Sectors <= 0 {
				t.Fatalf("record %d: invalid extent [%d,+%d)", i, r.LBA, r.Sectors)
			}
			if end := r.LBA + r.Sectors; end < r.LBA || end > tr.DiskSectors {
				t.Fatalf("record %d: extent end %d outside disk of %d sectors", i, end, tr.DiskSectors)
			}
		}
	})
}

// readNative decodes the package's own CSV through NativeSource.
func readNative(data string) (*Trace, error) {
	return ReadAll(NewNativeSource(strings.NewReader(data)))
}

// FuzzRead exercises the package's own CSV decoder and checks that every
// accepted trace round-trips through Write and NativeSource unchanged.
func FuzzRead(f *testing.F) {
	seeds := []string{
		"# trace: x disk_sectors: 4096\narrival_us,op,lba,sectors\n0,R,0,8\n10,W,8,8\n",
		"arrival_us,op,lba,sectors\n0,R,0,8\n",
		"arrival_us,op,lba,sectors\n5,R,0,8\n4,R,0,8\n",
		"arrival_us,op,lba,sectors\n",
		"0,R,0,8\n",
		"",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data string) {
		tr, err := readNative(data)
		if err != nil {
			return
		}
		var b strings.Builder
		if err := Write(&b, tr); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		tr2, err := readNative(b.String())
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if len(tr2.Records) != len(tr.Records) {
			t.Fatalf("round trip changed record count: %d -> %d", len(tr.Records), len(tr2.Records))
		}
		for i := range tr.Records {
			if tr.Records[i] != tr2.Records[i] {
				t.Fatalf("record %d changed: %+v -> %+v", i, tr.Records[i], tr2.Records[i])
			}
		}
	})
}
