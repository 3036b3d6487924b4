package ldif

import (
	"bufio"
	"encoding/base64"
	"fmt"
	"io"
	"strings"
)

// scannerDecode is the bufio.Scanner decoder Unmarshal replaced, kept as
// the reference the differential tests compare against: same entries,
// same errors, on any input.
func scannerDecode(r io.Reader) ([]Entry, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)

	var entries []Entry
	var cur *Entry
	var pending string // logical line being assembled across folds
	lineNo := 0

	flushLine := func() error {
		if pending == "" {
			return nil
		}
		line := pending
		pending = ""
		if strings.HasPrefix(line, "#") {
			return nil
		}
		name, value, err := scannerParseLine(line)
		if err != nil {
			return fmt.Errorf("ldif: line %d: %w", lineNo, err)
		}
		if strings.EqualFold(name, "dn") {
			if cur != nil {
				entries = append(entries, *cur)
			}
			cur = &Entry{DN: value}
			return nil
		}
		if cur == nil {
			return fmt.Errorf("ldif: line %d: attribute %q before any dn", lineNo, name)
		}
		cur.Add(name, value)
		return nil
	}

	for sc.Scan() {
		lineNo++
		raw := sc.Text()
		switch {
		case raw == "":
			if err := flushLine(); err != nil {
				return nil, err
			}
			if cur != nil {
				entries = append(entries, *cur)
				cur = nil
			}
		case strings.HasPrefix(raw, " "):
			if pending == "" {
				return nil, fmt.Errorf("ldif: line %d: continuation with no preceding line", lineNo)
			}
			pending += raw[1:]
		default:
			if err := flushLine(); err != nil {
				return nil, err
			}
			pending = raw
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ldif: read: %w", err)
	}
	if err := flushLine(); err != nil {
		return nil, err
	}
	if cur != nil {
		entries = append(entries, *cur)
	}
	return entries, nil
}

func scannerParseLine(line string) (name, value string, err error) {
	colon := -1
	for i := 0; i < len(line); i++ {
		if line[i] != ':' {
			continue
		}
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
		b, err := base64.StdEncoding.DecodeString(strings.TrimLeft(rest[1:], " "))
		if err != nil {
			return "", "", fmt.Errorf("bad base64 value for %q: %w", name, err)
		}
		return name, string(b), nil
	}
	return name, strings.TrimLeft(rest, " "), nil
}
