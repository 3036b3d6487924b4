package ldif

import (
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func sampleEntries() []Entry {
	e1 := Entry{DN: "kw=Memory, resource=hot.anl.gov, o=grid"}
	e1.Add("objectclass", "InfoGramProvider")
	e1.Add("Memory:total", "1024")
	e1.Add("Memory:free", "512")
	e2 := Entry{DN: "kw=CPU, resource=hot.anl.gov, o=grid"}
	e2.Add("CPU:count", "8")
	return []Entry{e1, e2}
}

func TestEncodeBasic(t *testing.T) {
	out, err := Marshal(sampleEntries())
	if err != nil {
		t.Fatal(err)
	}
	want := "dn: kw=Memory, resource=hot.anl.gov, o=grid\n" +
		"objectclass: InfoGramProvider\n" +
		"Memory:total: 1024\n" +
		"Memory:free: 512\n" +
		"\n" +
		"dn: kw=CPU, resource=hot.anl.gov, o=grid\n" +
		"CPU:count: 8\n"
	if out != want {
		t.Errorf("Marshal:\n%q\nwant\n%q", out, want)
	}
}

func TestRoundTrip(t *testing.T) {
	entries := sampleEntries()
	out, err := Marshal(entries)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(entries) {
		t.Fatalf("got %d entries, want %d", len(back), len(entries))
	}
	for i := range entries {
		if back[i].DN != entries[i].DN {
			t.Errorf("entry %d DN = %q", i, back[i].DN)
		}
		if len(back[i].Attrs) != len(entries[i].Attrs) {
			t.Fatalf("entry %d: %d attrs, want %d", i, len(back[i].Attrs), len(entries[i].Attrs))
		}
		for j, a := range entries[i].Attrs {
			if back[i].Attrs[j] != a {
				t.Errorf("entry %d attr %d = %+v, want %+v", i, j, back[i].Attrs[j], a)
			}
		}
	}
}

func TestBase64Values(t *testing.T) {
	cases := []string{
		" leading space",
		"trailing space ",
		":starts with colon",
		"<starts with angle",
		"has\nnewline",
		"non-ascii: héllo",
		"\x00nul",
	}
	for _, v := range cases {
		e := Entry{DN: "o=test"}
		e.Add("attr", v)
		out, err := Marshal([]Entry{e})
		if err != nil {
			t.Fatalf("Marshal(%q): %v", v, err)
		}
		if !strings.Contains(out, "attr:: ") {
			t.Errorf("value %q should be base64-encoded, got %q", v, out)
		}
		back, err := Unmarshal(out)
		if err != nil {
			t.Fatalf("Unmarshal(%q): %v", out, err)
		}
		if got, _ := back[0].Get("attr"); got != v {
			t.Errorf("round trip %q -> %q", v, got)
		}
	}
}

func TestLineFolding(t *testing.T) {
	long := strings.Repeat("x", 300)
	e := Entry{DN: "o=test"}
	e.Add("longattr", long)
	out, err := Marshal([]Entry{e})
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(out, "\n") {
		if len(line) > 76 {
			t.Errorf("line %d not folded: %d chars", i, len(line))
		}
	}
	back, err := Unmarshal(out)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := back[0].Get("longattr"); got != long {
		t.Errorf("folded round trip lost data: %d chars back", len(got))
	}
}

func TestColonInAttributeNames(t *testing.T) {
	// The namespaced names of paper §6.2.1 ("Memory:total") must survive.
	e := Entry{DN: "o=test"}
	e.Add("Memory:total", "1024")
	e.Add("quality:score", "98.50")
	out, err := Marshal([]Entry{e})
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(out)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := back[0].Get("Memory:total"); !ok || v != "1024" {
		t.Errorf("Memory:total = %q %v", v, ok)
	}
	if v, ok := back[0].Get("quality:score"); !ok || v != "98.50" {
		t.Errorf("quality:score = %q %v", v, ok)
	}
}

func TestValueContainingColonSpace(t *testing.T) {
	e := Entry{DN: "o=test"}
	e.Add("note", "key: value")
	out, err := Marshal([]Entry{e})
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(out)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := back[0].Get("note"); v != "key: value" {
		t.Errorf("note = %q", v)
	}
}

func TestDecodeComments(t *testing.T) {
	src := "# a comment\ndn: o=test\n# another\nattr: v\n"
	entries, err := Unmarshal(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || len(entries[0].Attrs) != 1 {
		t.Errorf("entries = %+v", entries)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []string{
		"attr: value\n",          // attribute before dn
		" continuation first\n",  // continuation with no line
		"dn: o=x\nattr:: !!!\n",  // bad base64
		"dn: o=x\nmalformed\n",   // no colon
		"dn: o=x\n: emptyname\n", // empty name
	}
	for _, src := range cases {
		if _, err := Unmarshal(src); err == nil {
			t.Errorf("Unmarshal(%q): expected error", src)
		}
	}
}

func TestEmptyValue(t *testing.T) {
	e := Entry{DN: "o=test"}
	e.Add("empty", "")
	out, err := Marshal([]Entry{e})
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(out)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := back[0].Get("empty"); !ok || v != "" {
		t.Errorf("empty = %q %v", v, ok)
	}
}

func TestGetAndAll(t *testing.T) {
	e := Entry{DN: "o=test"}
	e.Add("multi", "one").Add("multi", "two").Add("other", "x")
	if v, ok := e.Get("MULTI"); !ok || v != "one" {
		t.Errorf("Get case-insensitive = %q %v", v, ok)
	}
	if all := e.All("multi"); len(all) != 2 || all[1] != "two" {
		t.Errorf("All = %v", all)
	}
	if _, ok := e.Get("absent"); ok {
		t.Error("Get(absent) should be !ok")
	}
}

func TestEmptyAttributeNameRejected(t *testing.T) {
	e := Entry{DN: "o=test"}
	e.Attrs = append(e.Attrs, Attr{Name: "", Value: "x"})
	if _, err := Marshal([]Entry{e}); err == nil {
		t.Error("expected error for empty attribute name")
	}
}

// TestLineBreakInAttributeNameRejected: names are written unencoded, so a
// CR or LF in one cannot be read back; folding can put a CR at a row end,
// where it reads as a CRLF line end.
func TestLineBreakInAttributeNameRejected(t *testing.T) {
	for _, name := range []string{"a\nb", "a\rb", strings.Repeat("a", 75) + "\rb"} {
		e := Entry{DN: "o=test"}
		e.Add(name, "x")
		if _, err := Marshal([]Entry{e}); err == nil {
			t.Errorf("Marshal accepted attribute name %q", name)
		}
	}
}

// TestRoundTripProperty: arbitrary printable attribute values round-trip.
func TestRoundTripProperty(t *testing.T) {
	prop := func(dn string, names []string, values []string) bool {
		dn = strings.Map(stripControl, dn)
		if dn == "" || strings.HasPrefix(dn, " ") || strings.HasSuffix(dn, " ") {
			dn = "o=test"
		}
		e := Entry{DN: dn}
		n := len(names)
		if len(values) < n {
			n = len(values)
		}
		for i := 0; i < n; i++ {
			name := sanitizeName(names[i])
			e.Add(name, values[i])
		}
		out, err := Marshal([]Entry{e})
		if err != nil {
			return false
		}
		back, err := Unmarshal(out)
		if err != nil || len(back) != 1 {
			return false
		}
		if back[0].DN != e.DN || len(back[0].Attrs) != len(e.Attrs) {
			return false
		}
		for i, a := range e.Attrs {
			if back[0].Attrs[i] != a {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func stripControl(r rune) rune {
	if r < 0x20 || r == 0x7f {
		return -1
	}
	return r
}

// sanitizeName produces a valid attribute name from arbitrary input.
func sanitizeName(s string) string {
	var sb strings.Builder
	for _, r := range s {
		if (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9') || r == '-' {
			sb.WriteRune(r)
		}
	}
	if sb.Len() == 0 {
		return "attr"
	}
	return sb.String()
}

// TestUnmarshalAllocations pins the slice decoder's garbage on
// BenchmarkDecode's 20-entry answer: the scanner decoder it replaced took
// 188 allocations and about 77 KB per call, mostly its 64 KiB buffer.
func TestUnmarshalAllocations(t *testing.T) {
	s, err := Marshal(benchEntries(20))
	if err != nil {
		t.Fatal(err)
	}
	decode := func() {
		if _, err := Unmarshal(s); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, decode); allocs > 188/2 {
		t.Errorf("Unmarshal allocates %v times per call, want <= %d", allocs, 188/2)
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		decode()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 16<<10 {
		t.Errorf("Unmarshal allocates %d bytes per call, want < %d", per, 16<<10)
	}
}
