package trace

import (
	"strings"
	"testing"
)

// TestParseIntBytesDigitBoundary pins parseIntBytes and scanIntField at
// the edge of the unchecked fast path: 18 digits parse unchecked, 19
// and more take the overflow-checked loop, and both paths agree on
// signs, padding, overflow and stray bytes.
func TestParseIntBytesDigitBoundary(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		ok   bool
	}{
		{"0", 0, true},
		{"7", 7, true},
		{"999999999999999999", 999999999999999999, true},     // 18 digits: fast path
		{"100000000000000000", 100000000000000000, true},     // 18 digits
		{"000000000000000042", 42, true},                     // 18 digits, leading zeros
		{"0000000000000000042", 42, true},                    // 19 digits, leading zeros
		{"1000000000000000000", 1000000000000000000, true},   // 19 digits: checked path
		{"9223372036854775807", 9223372036854775807, true},   // MaxInt64
		{"9223372036854775808", 0, false},                    // MaxInt64+1
		{"9999999999999999999", 0, false},                    // 19 digits, overflow
		{"10000000000000000000", 0, false},                   // 20 digits
		{"-999999999999999999", -999999999999999999, true},   // signed 18 digits
		{"+999999999999999999", 999999999999999999, true},    // signed 18 digits
		{"-9223372036854775807", -9223372036854775807, true}, // -MaxInt64
		{"-9223372036854775808", 0, false},                   // MinInt64 is not accepted
		{"+9223372036854775807", 9223372036854775807, true},  // +MaxInt64
		{" 999999999999999999", 999999999999999999, true},    // padded
		{"999999999999999999\t", 999999999999999999, true},   // padded
		{" 9223372036854775807 ", 9223372036854775807, true}, // padded 19 digits
		{"12x", 0, false},                 // stray byte
		{"99999999999999999x", 0, false},  // stray byte at digit 18
		{"999999999999999999x", 0, false}, // stray byte after 18 digits
		{"1 2", 0, false},                 // inner space
		{"", 0, false},                    // empty
		{" ", 0, false},                   // blank
		{"-", 0, false},                   // sign alone
		{"+-1", 0, false},                 // two signs
		{"1,2", 0, false},                 // comma is a stray byte here
	}
	for _, c := range cases {
		got, ok := parseIntBytes([]byte(c.in))
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("parseIntBytes(%q) = %d, %v; want %d, %v", c.in, got, ok, c.want, c.ok)
		}
		if rv, rok := refParseInt([]byte(c.in)); rok != ok || rv != got && ok {
			t.Errorf("parseIntBytes(%q) = %d, %v; checked loop says %d, %v", c.in, got, ok, rv, rok)
		}
		if strings.Contains(c.in, ",") {
			continue
		}
		// The same text as the middle field of a line, and as its last.
		for _, line := range []string{"a," + c.in + ",b", "a," + c.in} {
			v, ok, end := scanIntField([]byte(line), 2)
			if ok != c.ok || (ok && v != c.want) || end != 2+len(c.in) {
				t.Errorf("scanIntField(%q, 2) = %d, %v, %d; want %d, %v, %d", line, v, ok, end, c.want, c.ok, 2+len(c.in))
			}
		}
	}
}

// TestEqualFoldASCII checks the case-insensitive compare against a
// byte-wise lower-casing of both sides over every pair of bytes.
func TestEqualFoldASCII(t *testing.T) {
	lower := func(c byte) byte {
		if 'A' <= c && c <= 'Z' {
			return c + 'a' - 'A'
		}
		return c
	}
	for c := 0; c < 256; c++ {
		for d := 0; d < 256; d++ {
			want := lower(byte(c)) == lower(byte(d))
			if got := equalFoldASCII([]byte{byte(c)}, string([]byte{byte(d)})); got != want {
				t.Fatalf("equalFoldASCII(%q, %q) = %v, want %v", byte(c), byte(d), got, want)
			}
		}
	}
	if equalFoldASCII([]byte("Read"), "readx") || !equalFoldASCII([]byte("WRITE"), "write") {
		t.Fatal("length or multi-byte compare wrong")
	}
}
