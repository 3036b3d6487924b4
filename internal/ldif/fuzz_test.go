package ldif

import (
	"bufio"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// checkAgainstReference asserts that Unmarshal and the bufio.Scanner
// reference agree on src: identical entries, or errors with identical
// text.
func checkAgainstReference(t *testing.T, src string) ([]Entry, error) {
	t.Helper()
	got, err := Unmarshal(src)
	want, werr := scannerDecode(strings.NewReader(src))
	switch {
	case (err == nil) != (werr == nil):
		t.Fatalf("Unmarshal(%.200q): err = %v, reference err = %v", src, err, werr)
	case err != nil:
		if err.Error() != werr.Error() {
			t.Fatalf("Unmarshal(%.200q): err = %q, reference err = %q", src, err, werr)
		}
		if errors.Is(werr, bufio.ErrTooLong) && !errors.Is(err, bufio.ErrTooLong) {
			t.Fatalf("Unmarshal(%.200q): err = %v does not wrap bufio.ErrTooLong", src, err)
		}
	case !reflect.DeepEqual(got, want):
		t.Fatalf("Unmarshal(%.200q) = %+v, reference = %+v", src, got, want)
	}
	return got, err
}

// referenceSeeds covers each behaviour the slice decoder must keep from
// the scanner one.
var referenceSeeds = []string{
	"",
	"\n",
	"dn: o=x\nattr: v\n",
	"dn: o=x\r\nattr: v\r\n\r\ndn: o=y\r\nb: w\r\n", // CRLF
	"dn: o=x\nattr: v",                                                // no trailing newline
	"dn: o=x\nattr: v\r",                                              // CR, no newline
	"dn: o=x\nattr: v\r\r\n",                                          // only one CR stripped
	"dn: o=x\nlong: abc\n def\n  ghi\n",                               // folded
	"dn: o=x\n# comment\n continued\nattr: v\n",                       // comment folded
	"dn: o=x\nblob:: aGVsbG8=\nempty::\nspaced::   aGk=\n",            // base64
	"dn: o=x\nblob:: !!!\n",                                           // bad base64, line number
	"dn: o=x\nmalformed\nnext: v\n",                                   // error names the next line
	"dn: o=x\nmalformed",                                              // error at EOF
	" continuation first\n",                                           // continuation with no line
	"dn: o=x\n\n continued\n",                                         // continuation after blank
	"attr: v\n",                                                       // attribute before dn
	"dn: o=x\n: emptyname\n",                                          // empty name
	"dn: o=x\nKey:attr: v\nKey::x: w\n",                               // colons in names
	"DN: o=x\nattr:\ndn: o=y\n",                                       // case-insensitive dn
	"dn: o=x\n\n\n\ndn: o=y\n\n",                                      // blank runs
	"dn: o=x\n \n \n",                                                 // empty continuations
	"dn: o=x\n" + strings.Repeat("a", 75) + "\rb: v\n",                // CR in a name, at a fold
	"dn: o=x\na: " + strings.Repeat("v", maxLine-len("a: ")-1) + "\n", // longest line
	"dn: o=x\na: " + strings.Repeat("v", maxLine-len("a: ")) + "\n",   // one byte too long
	"dn: o=x\na: " + strings.Repeat("v", maxLine-len("a: ")-1),        // longest last line
	"dn: o=x\na: " + strings.Repeat("v", maxLine-len("a: ")),          // last line too long
	"dn: o=x\na: " + strings.Repeat("v", maxLine-len("a: ")-1) + "\r", // CR counts
	"dn: o=x\nmalformed\n" + strings.Repeat("v", maxLine) + "\n",      // too long wins
}

func TestUnmarshalMatchesReference(t *testing.T) {
	for _, src := range referenceSeeds {
		checkAgainstReference(t, src)
	}
	if _, err := Unmarshal(referenceSeeds[len(referenceSeeds)-1]); !errors.Is(err, bufio.ErrTooLong) {
		t.Errorf("over-long line: err = %v, want bufio.ErrTooLong", err)
	}
}

// FuzzUnmarshal is a differential test: on arbitrary input the slice
// decoder must return exactly what the scanner decoder returns. Whatever
// decodes must also reach a Marshal/Unmarshal fixed point.
func FuzzUnmarshal(f *testing.F) {
	for _, src := range referenceSeeds {
		if len(src) < 1<<10 {
			f.Add(src)
		}
	}
	// One over-long line joins the corpus. The other megabyte seeds run in
	// TestUnmarshalMatchesReference: each makes a mutation of it copy a
	// megabyte, which would slow the fuzzer for no new coverage.
	f.Add(referenceSeeds[len(referenceSeeds)-1])
	sample, _ := Marshal(sampleEntries())
	f.Add(sample)
	f.Fuzz(func(t *testing.T, src string) {
		entries, err := checkAgainstReference(t, src)
		if err != nil || len(entries) == 0 {
			return
		}
		out, err := Marshal(entries)
		if err != nil {
			// Decoding accepts names Marshal cannot write back.
			return
		}
		back, err := Unmarshal(out)
		if err != nil {
			t.Fatalf("Unmarshal(Marshal(%q)) = %v", src, err)
		}
		if !reflect.DeepEqual(back, entries) {
			t.Fatalf("round trip of %q: %+v != %+v", src, back, entries)
		}
		again, err := Marshal(back)
		if err != nil || again != out {
			t.Fatalf("Marshal not a fixed point for %q: %q != %q (%v)", src, again, out, err)
		}
	})
}
