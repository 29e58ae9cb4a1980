// Package trace provides the block I/O trace substrate: the record model,
// CSV encoding/decoding compatible with simple SNIA-style exports, and a
// synthetic trace generator calibrated per named disk of the paper's trace
// collection (Tables I and II). The real MSR-Cambridge / HP Cello / TPC-C
// traces are not redistributable, so each named disk is substituted by a
// generator reproducing the statistics the paper's analysis consumes:
// request volume, idle-interval mean and CoV, heavy idle-time tails with
// decreasing hazard rates, autocorrelated gaps, and periodic (diurnal)
// activity. See DESIGN.md for the substitution argument.
package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// Record is one trace request.
type Record struct {
	// Arrival is the request submission time from trace start.
	Arrival time.Duration
	// LBA is the starting sector.
	LBA int64
	// Sectors is the length in sectors.
	Sectors int64
	// Write marks a write request.
	Write bool
}

// Trace is a named sequence of records in non-decreasing arrival order.
type Trace struct {
	Name string
	// DiskSectors is the address space the records were generated for.
	DiskSectors int64
	Records     []Record
}

// Duration returns the arrival time of the last record.
func (t *Trace) Duration() time.Duration {
	if len(t.Records) == 0 {
		return 0
	}
	return t.Records[len(t.Records)-1].Arrival
}

// Arrivals returns the arrival-time series.
func (t *Trace) Arrivals() []time.Duration {
	out := make([]time.Duration, len(t.Records))
	for i, r := range t.Records {
		out[i] = r.Arrival
	}
	return out
}

// header is the CSV header written and expected by this package.
const header = "arrival_us,op,lba,sectors"

// Write encodes the trace as CSV.
func Write(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# trace: %s disk_sectors: %d\n%s\n", t.Name, t.DiskSectors, header); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	for _, r := range t.Records {
		op := byte('R')
		if r.Write {
			op = 'W'
		}
		line := strconv.FormatInt(int64(r.Arrival/time.Microsecond), 10) +
			"," + string(op) +
			"," + strconv.FormatInt(r.LBA, 10) +
			"," + strconv.FormatInt(r.Sectors, 10) + "\n"
		if _, err := bw.WriteString(line); err != nil {
			return fmt.Errorf("trace: write record: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace: flush: %w", err)
	}
	return nil
}

// ErrBadFormat reports a malformed trace file.
var ErrBadFormat = errors.New("trace: bad format")

func parseMeta(line string) (name string, sectors int64, ok bool) {
	fields := strings.Fields(strings.TrimPrefix(line, "#"))
	for i := 0; i+1 < len(fields); i++ {
		switch fields[i] {
		case "trace:":
			name = fields[i+1]
		case "disk_sectors:":
			if v, err := strconv.ParseInt(fields[i+1], 10, 64); err == nil {
				sectors = v
			}
		}
	}
	return name, sectors, name != "" || sectors != 0
}
