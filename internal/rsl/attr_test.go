package rsl

import (
	"strings"
	"testing"
	"testing/quick"
)

// canonAttrEqual is the comparison AttrEqual replaced: both names
// rewritten to a canonical string (underscores dropped, ASCII
// lower-cased, ranging over the string so invalid UTF-8 becomes U+FFFD),
// then compared.
func canonAttrEqual(a, b string) bool {
	canon := func(name string) string {
		var sb strings.Builder
		for _, r := range name {
			if r == '_' {
				continue
			}
			if r >= 'A' && r <= 'Z' {
				r += 'a' - 'A'
			}
			sb.WriteRune(r)
		}
		return sb.String()
	}
	return canon(a) == canon(b)
}

func TestAttrEqualSemantics(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"", "", true},
		{"_", "", true},
		{"__", "_", true},
		{"maxtime", "maxtime", true},
		{"Max_Time", "maxtime", true},
		{"MAX_TIME", "max__time_", true},
		{"_executable", "Executable", true},
		{"maxtime", "maxtim", false},
		{"maxtime", "maxtimes", false},
		{"a", "b", false},
		{"a_b", "ab_c", false},
		{"@", "`", false}, // the bytes before 'A' and after 'Z' do not fold
		{"[", "{", false},
		{"ÄRGER", "ärger", false}, // only ASCII folds
		{"Ärger", "Ä_rger", true},
		{"grüße", "GRÜSSE", false},
		{"\xff", "�", true}, // invalid UTF-8 compares as U+FFFD
		{"a\xffb", "A_�_B", true},
		{"\xff\xfe", "�", false},
		{"\xe2\x82", "��", true}, // a truncated sequence is one U+FFFD per byte
		{"é", "é", false},       // no Unicode normalization
	}
	for _, c := range cases {
		if got := AttrEqual(c.a, c.b); got != c.want {
			t.Errorf("AttrEqual(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
		if ref := canonAttrEqual(c.a, c.b); ref != c.want {
			t.Errorf("canonical comparison of (%q, %q) = %v, want %v", c.a, c.b, ref, c.want)
		}
		if got := AttrEqual(c.b, c.a); got != c.want {
			t.Errorf("AttrEqual(%q, %q) = %v, want %v (not symmetric)", c.b, c.a, got, c.want)
		}
	}
}

// TestAttrEqualMatchesCanonical checks AttrEqual against the canonical
// string comparison on random names drawn from an alphabet rich in the
// bytes that matter: underscores, both cases, non-ASCII and invalid UTF-8.
func TestAttrEqualMatchesCanonical(t *testing.T) {
	const alphabet = "aA_bBzZ@[\xc3\xa4\xc3\x84\xff\xe2\x82\xac"
	pick := func(idx []uint8) string {
		var sb strings.Builder
		for _, i := range idx {
			sb.WriteByte(alphabet[int(i)%len(alphabet)])
		}
		return sb.String()
	}
	prop := func(x, y []uint8, same bool) bool {
		a := pick(x)
		b := pick(y)
		if same {
			// Derive b from a so equal pairs are common, not a fluke.
			b = strings.ToUpper(strings.ReplaceAll(a, "_", "")) + "_"
		}
		return AttrEqual(a, b) == canonAttrEqual(a, b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestAttrEqualAllocationFree(t *testing.T) {
	pairs := [][2]string{
		{"Max_Time", "maxtime"},
		{"environment", "ENVIRONMENT"},
		{"Ärger", "ärger"},
		{"a\xffb", "A_�_B"},
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, p := range pairs {
			AttrEqual(p[0], p[1])
		}
	})
	if allocs != 0 {
		t.Errorf("AttrEqual allocates %v times per run, want 0", allocs)
	}
}
