// Package ldif encodes and decodes the LDAP Data Interchange Format
// (RFC 2849 subset) used as the default return format of both the MDS
// baseline and the InfoGram service (paper §5.5, §6.5: "The supported
// formats are LDIF and XML").
//
// Supported features: dn lines, attribute/value pairs in order, base64
// encoding (":: ") whenever a value is not safely printable, line folding
// at 76 columns with one-space continuations, comments, and blank-line
// entry separation.
package ldif

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"fmt"
	"io"
	"strings"
	"sync"

	"infogram/internal/zerocopy"
)

// Attr is one attribute/value pair. Values are opaque strings; ordering is
// preserved, since MDS-style records are meaningful in provider order.
type Attr struct {
	Name  string
	Value string
}

// Entry is one LDIF record: a distinguished name plus ordered attributes.
type Entry struct {
	DN    string
	Attrs []Attr
}

// Add appends an attribute and returns the entry for chaining.
func (e *Entry) Add(name, value string) *Entry {
	e.Attrs = append(e.Attrs, Attr{Name: name, Value: value})
	return e
}

// Get returns the first value of the named attribute (case-insensitive),
// with ok reporting presence.
func (e *Entry) Get(name string) (string, bool) {
	for _, a := range e.Attrs {
		if strings.EqualFold(a.Name, name) {
			return a.Value, true
		}
	}
	return "", false
}

// All returns every value of the named attribute in order.
func (e *Entry) All(name string) []string {
	var out []string
	for _, a := range e.Attrs {
		if strings.EqualFold(a.Name, name) {
			out = append(out, a.Value)
		}
	}
	return out
}

// foldWidth is the maximum output line length before folding.
const foldWidth = 76

// needsBase64 reports whether value must be base64-encoded per RFC 2849:
// unsafe initial characters (space, colon, '<'), non-printable or non-ASCII
// bytes, or trailing spaces.
func needsBase64(value string) bool {
	if value == "" {
		return false
	}
	switch value[0] {
	case ' ', ':', '<':
		return true
	}
	if value[len(value)-1] == ' ' {
		return true
	}
	for i := 0; i < len(value); i++ {
		c := value[i]
		if c == '\n' || c == '\r' || c == 0 || c >= 0x80 {
			return true
		}
	}
	return false
}

// encoder carries the scratch buffers of one Encode or Marshal call: the
// logical line being assembled (name + separator + value, base64-encoded
// in place when needed) and, for Marshal, the output buffer. Both are
// pooled, so rendering a reply on the request hot path reuses warm
// buffers instead of growing fresh ones per call.
type encoder struct {
	line []byte
	out  bytes.Buffer
}

// maxPooledScratch caps what a returned encoder may retain; a pathological
// giant reply should not pin its buffers in the pool forever.
const maxPooledScratch = 1 << 20

var encPool = sync.Pool{New: func() any { return new(encoder) }}

func getEncoder() *encoder { return encPool.Get().(*encoder) }

func (e *encoder) release() {
	if cap(e.line) > maxPooledScratch || e.out.Cap() > maxPooledScratch {
		return
	}
	e.line = e.line[:0]
	e.out.Reset()
	encPool.Put(e)
}

var (
	nlByte    = []byte{'\n'}
	spaceByte = []byte{' '}
)

// writeAttr assembles "name: value" (or the base64 ":: " form) in the
// line scratch and writes it to w with RFC 2849 folding. No intermediate
// strings are built.
func (e *encoder) writeAttr(w io.Writer, name, value string) error {
	e.line = append(e.line[:0], name...)
	if needsBase64(value) {
		e.line = append(e.line, ':', ':', ' ')
		// zerocopy: base64 encoding only reads its source.
		e.line = base64.StdEncoding.AppendEncode(e.line, zerocopy.Bytes(value))
	} else {
		e.line = append(e.line, ':', ' ')
		e.line = append(e.line, value...)
	}
	return e.flushFolded(w)
}

// flushFolded writes the assembled line with RFC 2849 folding: rows of at
// most foldWidth output columns, continuation rows led by one space.
func (e *encoder) flushFolded(w io.Writer) error {
	line := e.line
	for first := true; ; first = false {
		width := foldWidth
		if !first {
			if _, err := w.Write(spaceByte); err != nil {
				return err
			}
			width-- // the leading space occupies one output column
		}
		if len(line) <= width {
			if _, err := w.Write(line); err != nil {
				return err
			}
			_, err := w.Write(nlByte)
			return err
		}
		if _, err := w.Write(line[:width]); err != nil {
			return err
		}
		if _, err := w.Write(nlByte); err != nil {
			return err
		}
		line = line[width:]
	}
}

func (e *encoder) encode(w io.Writer, entries []Entry) error {
	for i, ent := range entries {
		if i > 0 {
			if _, err := w.Write(nlByte); err != nil {
				return err
			}
		}
		if err := e.writeAttr(w, "dn", ent.DN); err != nil {
			return err
		}
		for _, a := range ent.Attrs {
			if a.Name == "" {
				return fmt.Errorf("ldif: empty attribute name in entry %q", ent.DN)
			}
			if strings.IndexByte(a.Name, '\n') >= 0 || strings.IndexByte(a.Name, '\r') >= 0 {
				// A name is written as is, so a line break in it would
				// end or (folded onto a row end) corrupt the line.
				return fmt.Errorf("ldif: line break in attribute name %q in entry %q", a.Name, ent.DN)
			}
			if err := e.writeAttr(w, a.Name, a.Value); err != nil {
				return err
			}
		}
	}
	return nil
}

// Encode writes entries to w in LDIF, separated by blank lines.
func Encode(w io.Writer, entries []Entry) error {
	e := getEncoder()
	defer e.release()
	return e.encode(w, entries)
}

// Marshal renders entries as an LDIF string. The only allocation per call
// in the steady state is the returned string itself.
func Marshal(entries []Entry) (string, error) {
	e := getEncoder()
	defer e.release()
	e.out.Reset()
	if err := e.encode(&e.out, entries); err != nil {
		return "", err
	}
	return e.out.String(), nil
}

// maxLine bounds one physical line: a line of maxLine bytes or more, its
// line break excluded, fails the decode with an error wrapping
// bufio.ErrTooLong. It is the token limit of the bufio.Scanner this
// decoder replaced, kept so that input which failed then still fails.
const maxLine = 1 << 20

// Decode parses LDIF from r: it reads r to the end and parses the bytes
// as Unmarshal does. The returned entries alias the bytes read, which no
// one else holds.
func Decode(r io.Reader) ([]Entry, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("ldif: read: %w", err)
	}
	return Unmarshal(zerocopy.String(b))
}

// Unmarshal parses LDIF from a string. Comments (#) are skipped; folded
// lines are unfolded; base64 values are decoded. Lines end in LF or CRLF;
// a last line with no line break is still read.
//
// Aliasing: every DN, name and value that needs no unfolding or base64
// decoding is a substring of s, so the entries keep all of s alive. A
// caller whose s aliases memory it does not own (a cache arena, a pooled
// frame buffer) must pass a copy.
func Unmarshal(s string) ([]Entry, error) {
	var d decoder
	for len(s) > 0 {
		line := s
		if i := strings.IndexByte(s, '\n'); i >= 0 {
			line, s = s[:i], s[i+1:]
		} else {
			s = ""
		}
		if len(line) >= maxLine {
			return nil, fmt.Errorf("ldif: read: %w", bufio.ErrTooLong)
		}
		d.lineNo++
		if err := d.line(strings.TrimSuffix(line, "\r")); err != nil {
			return nil, err
		}
	}
	if err := d.flush(); err != nil {
		return nil, err
	}
	d.closeEntry()
	return d.entries, nil
}

// decoder holds the state of one Unmarshal call.
type decoder struct {
	entries []Entry
	open    bool // entries[len-1] is still taking attributes
	lineNo  int
	// pending is the first physical line of the logical line being
	// assembled; "" when none is. A folded logical line is assembled in
	// fold, with folded set.
	pending string
	fold    []byte
	folded  bool
	// attrHint is the attribute count of the last closed entry: the
	// capacity a new entry's attributes start at, so a run of alike
	// entries allocates each attribute slice once.
	attrHint int
	b64      []byte // base64 decode scratch
}

// line consumes one physical line, its line break removed.
func (d *decoder) line(raw string) error {
	switch {
	case raw == "":
		if err := d.flush(); err != nil {
			return err
		}
		d.closeEntry()
	case raw[0] == ' ':
		if d.pending == "" {
			return fmt.Errorf("ldif: line %d: continuation with no preceding line", d.lineNo)
		}
		if !d.folded {
			d.fold = append(d.fold[:0], d.pending...)
			d.folded = true
		}
		d.fold = append(d.fold, raw[1:]...)
	default:
		if err := d.flush(); err != nil {
			return err
		}
		d.pending = raw
	}
	return nil
}

// flush parses the assembled logical line, if any. Errors name the
// current physical line: the one whose arrival ended the logical line.
func (d *decoder) flush() error {
	line := d.pending
	if line == "" {
		return nil
	}
	d.pending = ""
	folded := d.folded
	d.folded = false
	if line[0] == '#' {
		return nil
	}
	if folded {
		line = string(d.fold)
	}
	name, value, err := d.parseLine(line)
	if err != nil {
		return fmt.Errorf("ldif: line %d: %w", d.lineNo, err)
	}
	if strings.EqualFold(name, "dn") {
		d.closeEntry()
		d.entries = append(d.entries, Entry{DN: value})
		d.open = true
		return nil
	}
	if !d.open {
		return fmt.Errorf("ldif: line %d: attribute %q before any dn", d.lineNo, name)
	}
	e := &d.entries[len(d.entries)-1]
	if e.Attrs == nil {
		e.Attrs = make([]Attr, 0, max(d.attrHint, 4))
	}
	e.Attrs = append(e.Attrs, Attr{Name: name, Value: value})
	return nil
}

func (d *decoder) closeEntry() {
	if d.open {
		d.attrHint = len(d.entries[len(d.entries)-1].Attrs)
		d.open = false
	}
}

// parseLine splits "name: value", "name:: base64", or "name:" lines. The
// separating colon is the first colon followed by a space, another colon,
// or end of line: attribute names themselves may contain colons, because
// InfoGram namespaces attributes as "Keyword:attr" (paper §6.2.1).
func (d *decoder) parseLine(line string) (name, value string, err error) {
	colon := -1
	for i := 0; ; i++ {
		j := strings.IndexByte(line[i:], ':')
		if j < 0 {
			break
		}
		i += j
		if i+1 == len(line) || line[i+1] == ' ' || line[i+1] == ':' {
			colon = i
			break
		}
	}
	if colon <= 0 {
		return "", "", fmt.Errorf("malformed line %q", line)
	}
	name = line[:colon]
	rest := line[colon+1:]
	if strings.HasPrefix(rest, ":") {
		// base64 form. zerocopy: base64 decoding only reads its source.
		d.b64, err = base64.StdEncoding.AppendDecode(d.b64[:0], zerocopy.Bytes(strings.TrimLeft(rest[1:], " ")))
		if err != nil {
			return "", "", fmt.Errorf("bad base64 value for %q: %w", name, err)
		}
		return name, string(d.b64), nil
	}
	return name, strings.TrimLeft(rest, " "), nil
}
