package repro

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"unicode/utf8"
)

// UnmarshalJSON decodes the JSON array of a spec's inline events in
// one pass, without reflection. It accepts, rejects and produces
// exactly what encoding/json does when it decodes into []InlineEvent
// with unknown fields disallowed:
//
//   - the keys u, v and t match case-insensitively, and the last value
//     of a repeated key wins;
//   - null changes nothing, as an element or as a field value; a null
//     array decodes to nil and an empty one to an empty, non-nil slice;
//   - any other key fails with `unknown field "<name>"`;
//   - t takes exactly the integers strconv.ParseInt accepts: no
//     fraction, no exponent, nothing outside int64;
//   - decoding into a non-empty slice overwrites its elements field by
//     field, as encoding/json does.
//
// A string token holding an escape or invalid UTF-8 is handed to
// encoding/json for unquoting; every other token is read here.
//
// The plan and shard decoders of internal/serve do not reach the
// parser through encoding/json: they find each inline value inside the
// request body and read it there with DecodePrefix, leaving the rest
// of the body to encoding/json.
func (s *InlineEvents) UnmarshalJSON(data []byte) error {
	n, err := s.DecodePrefix(data)
	if err != nil {
		return err
	}
	p := inlineParser{data: data, i: n}
	return p.end()
}

// DecodePrefix decodes the inline array at the start of data, after
// any white space, by UnmarshalJSON's rules, and returns the offset
// just past the value. What follows the value is left unread;
// UnmarshalJSON is DecodePrefix plus the check that only white space
// follows.
func (s *InlineEvents) DecodePrefix(data []byte) (int, error) {
	p := inlineParser{data: data}
	out, err := p.array(*s)
	if err != nil {
		return 0, err
	}
	*s = out
	return p.i, nil
}

// inlineParser reads one inline array: i is the read offset into data
// and n the index of the event being read.
type inlineParser struct {
	data []byte
	i, n int
}

// array reads one value, null or an array of events, into out's
// backing array.
func (p *inlineParser) array(out InlineEvents) (InlineEvents, error) {
	switch p.next() {
	case 'n':
		return nil, p.null()
	case '[':
		p.i++
	default:
		return nil, p.syntax("an array")
	}
	if p.next() == ']' {
		p.i++
		return InlineEvents{}, nil
	}
	for ; ; p.n++ {
		if p.n == cap(out) {
			out = slices.Grow(out[:p.n], p.room())
		}
		out = out[:p.n+1]
		if err := p.event(&out[p.n]); err != nil {
			return nil, err
		}
		switch p.next() {
		case ',':
			p.i++
		case ']':
			p.i++
			return out[:p.n+1], nil
		default:
			return nil, p.syntax("',' or ']'")
		}
	}
}

// room estimates how many events are left to read: the braces, which
// open every event object, up to the next ']', at the latest the one
// that closes the array. Counting no further keeps a prefix decode
// from paying for the input after the array; one event per 16 bytes at
// most keeps braces inside strings from inflating the estimate. A ']'
// inside a string only makes it short, and the array grows again.
func (p *inlineParser) room() int {
	rest := p.data[p.i:]
	if end := bytes.IndexByte(rest, ']'); end >= 0 {
		rest = rest[:end]
	}
	return max(1, min(bytes.Count(rest, []byte{'{'}), len(rest)/16))
}

// event reads one element: null, or an object whose fields overwrite
// e's.
func (p *inlineParser) event(e *InlineEvent) error {
	switch p.next() {
	case 'n':
		return p.null()
	case '{':
		p.i++
	default:
		return p.eventErr("want an object")
	}
	if p.next() == '}' {
		p.i++
		return nil
	}
	for {
		if p.next() != '"' {
			return p.syntax("a key")
		}
		name, err := p.str()
		if err != nil {
			return err
		}
		// No non-ASCII rune folds to u, v or t, so only one-byte keys
		// match, and c|0x20 folds exactly U, V and T to lower case.
		var f byte
		if len(name) == 1 {
			f = name[0] | 0x20
		}
		if f != 'u' && f != 'v' && f != 't' {
			return p.eventErr("unknown field %q", name)
		}
		if p.next() != ':' {
			return p.syntax("':'")
		}
		p.i++
		if err := p.field(e, f); err != nil {
			return err
		}
		switch p.next() {
		case ',':
			p.i++
		case '}':
			p.i++
			return nil
		default:
			return p.syntax("',' or '}'")
		}
	}
}

// field reads the value of field f ('u', 'v' or 't') into e.
func (p *inlineParser) field(e *InlineEvent, f byte) error {
	c := p.next()
	switch {
	case c == 'n':
		return p.null()
	case f == 't':
		t, err := p.integer()
		e.T = t
		return err
	case c != '"':
		return p.eventErr("%c: want a string", f)
	}
	s, err := p.str()
	if f == 'u' {
		e.U = s
	} else {
		e.V = s
	}
	return err
}

// str reads the string token at the read offset.
func (p *inlineParser) str() (string, error) {
	start := p.i
	escaped, ascii := false, true
	for i := start + 1; i < len(p.data); i++ {
		switch c := p.data[i]; {
		case c == '"':
			p.i = i + 1
			raw := p.data[start+1 : i]
			if !escaped && (ascii || utf8.Valid(raw)) {
				return string(raw), nil
			}
			var s string
			if err := json.Unmarshal(p.data[start:p.i], &s); err != nil {
				return "", p.eventErr("%v", err)
			}
			return s, nil
		case c == '\\':
			escaped = true
			i++ // the escaped byte; encoding/json checks the escape
		case c < 0x20:
			p.i = i
			return "", p.syntax("a string character")
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	p.i = len(p.data)
	return "", p.syntax(`'"'`)
}

// integer reads t's number: an integer inside int64, with neither
// fraction nor exponent.
func (p *inlineParser) integer() (int64, error) {
	start := p.i
	neg := p.i < len(p.data) && p.data[p.i] == '-'
	if neg {
		p.i++
	}
	limit := uint64(math.MaxInt64)
	if neg {
		limit++
	}
	digits := p.i
	var n uint64
	over := false
	for ; p.i < len(p.data) && '0' <= p.data[p.i] && p.data[p.i] <= '9'; p.i++ {
		d := uint64(p.data[p.i] - '0')
		if over || n > (limit-d)/10 {
			over = true
			continue
		}
		n = n*10 + d
	}
	switch {
	case p.i == digits:
		return 0, p.eventErr("t: want an integer")
	case p.data[digits] == '0' && p.i-digits > 1:
		return 0, p.eventErr("t: %s has a leading zero", p.data[start:p.i])
	case p.i < len(p.data) && (p.data[p.i] == '.' || p.data[p.i] == 'e' || p.data[p.i] == 'E'):
		return 0, p.eventErr("t: %s%c… is not an integer", p.data[start:p.i], p.data[p.i])
	case over:
		return 0, p.eventErr("t: %s overflows int64", p.data[start:p.i])
	}
	if neg {
		return -int64(n), nil
	}
	return int64(n), nil
}

// null reads the literal null.
func (p *inlineParser) null() error {
	if !bytes.HasPrefix(p.data[p.i:], []byte("null")) {
		return p.syntax("null")
	}
	p.i += 4
	return nil
}

// end checks that only white space follows the array.
func (p *inlineParser) end() error {
	p.next()
	if p.i < len(p.data) {
		return p.syntax("the end of the input")
	}
	return nil
}

// next skips white space and returns the byte at the read offset, 0
// at the end of the input.
func (p *inlineParser) next() byte {
	for ; p.i < len(p.data); p.i++ {
		switch c := p.data[p.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

func (p *inlineParser) syntax(want string) error {
	if p.i >= len(p.data) {
		return fmt.Errorf("repro: inline: unexpected end of input, want %s", want)
	}
	return fmt.Errorf("repro: inline: offset %d: found %q, want %s", p.i, p.data[p.i], want)
}

func (p *inlineParser) eventErr(format string, args ...any) error {
	return fmt.Errorf("repro: inline event %d: %s", p.n, fmt.Sprintf(format, args...))
}
