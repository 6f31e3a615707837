package wire

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"
)

// Rejections under the two scan bounds, MaxStringToken and MaxSkipDepth.
var (
	ErrStringTooLong = fmt.Errorf("string longer than %d bytes", MaxStringToken)
	ErrTooDeep       = fmt.Errorf("unknown field nested deeper than %d", MaxSkipDepth)
)

// Scanner is the streaming JSON reader under the bodies of POST /v1/events
// (NextEvent) and POST /v1/query (ParseQueryBody): it walks the request
// byte-wise with no reflection and no allocation per element, and on every
// token it accepts and rejects exactly what encoding/json does — strings may
// carry escapes and invalid UTF-8, skipped values are validated in full —
// apart from the two bounds above.
//
// The buffer is read-ahead and token scratch at once: a string token is
// always contiguous in it, so its fixed size is what enforces MaxStringToken.
//
// NextEvent first tries an element as the one spelling EncodeEvents writes
// (canonicalEvent, one pass over the buffered bytes) and reads it byte-wise
// only when that declines, as ParseQueryBody does with a keys element and
// EncodeQuery's spelling (canonicalKey); which path runs is decided by the
// bytes alone, and the fast one accepts nothing the byte-wise one would read
// differently.
type Scanner struct {
	r        io.Reader
	buf      [MaxStringToken + 2]byte // the longest legal string, quotes included
	pos, end int
	err      error // why nothing more can be read; sticky
	n        int   // elements NextEvent has returned; -1 before the '['
}

var scannerPool = sync.Pool{New: func() any { return new(Scanner) }}

// NewScanner returns a pooled scanner over r; Release it when done.
func NewScanner(r io.Reader) *Scanner {
	s := scannerPool.Get().(*Scanner)
	s.r, s.n = r, -1
	return s
}

// Release returns the scanner to the pool; it hands out values only, so
// nothing outlives it.
func (s *Scanner) Release() {
	s.r, s.pos, s.end, s.err = nil, 0, 0, nil
	scannerPool.Put(s)
}

// refill slides buf[keep:end] to the front and reads more behind it,
// reporting whether it got any; a caller holding buffer indices shifts them
// down by keep.
func (s *Scanner) refill(keep int) bool {
	if keep > 0 {
		s.end = copy(s.buf[:], s.buf[keep:s.end])
		s.pos -= keep
	}
	if s.end == len(s.buf) {
		s.err = ErrStringTooLong // only a string token keeps anything
	}
	for tries := 0; s.err == nil; tries++ {
		n, err := s.r.Read(s.buf[s.end:])
		if s.end, s.err = s.end+n, err; n > 0 {
			return true
		}
		if err == nil && tries == 100 {
			s.err = io.ErrNoProgress
		}
	}
	return false
}

// cur returns the byte at the cursor without consuming it, or 0 when the
// body cannot be read further: no token starts with or continues on a NUL,
// so every caller rejects it where it rejects any stray byte — through
// unexpected, which knows the difference.
func (s *Scanner) cur() byte {
	if s.pos == s.end && !s.refill(s.pos) {
		return 0
	}
	return s.buf[s.pos]
}

// unexpected is the rejection of c where the grammar wanted something else.
func (s *Scanner) unexpected(c byte, want string) error {
	switch {
	case c != 0 || s.err == nil:
		return fmt.Errorf("invalid character %q, want %s", c, want)
	case s.err == io.EOF:
		return io.ErrUnexpectedEOF
	}
	return s.err
}

// eat consumes the byte at the cursor if it is c.
func (s *Scanner) eat(c byte) bool {
	if s.cur() != c {
		return false
	}
	s.pos++
	return true
}

// peek skips whitespace and returns the next byte without consuming it.
func (s *Scanner) peek() byte {
	for {
		c := s.cur()
		if c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			return c
		}
		s.pos++
	}
}

// want consumes the next non-space byte, which must be c.
func (s *Scanner) want(c byte) error {
	if got := s.peek(); got != c {
		return s.unexpected(got, string(c))
	}
	s.pos++
	return nil
}

// lit consumes a literal (true, false, null) at the cursor.
func (s *Scanner) lit(word string) error {
	for i := 0; i < len(word); i++ {
		if !s.eat(word[i]) {
			return s.unexpected(s.cur(), word)
		}
	}
	return nil
}

// str reads the string token at the cursor (the caller saw its '"') and
// returns the decoded contents, valid until the scanner reads on. Plain
// ASCII is returned in place; a token holding an escape or a byte ≥ 0x80 is
// unquoted by encoding/json itself, so escapes, surrogates and U+FFFD
// replacement cannot drift from it.
func (s *Scanner) str() ([]byte, error) {
	start, i := s.pos, s.pos+1
	slow, esc := false, false
	for {
		for ; i < s.end; i++ {
			switch c := s.buf[i]; {
			case esc:
				esc = false
			case c == '"':
				s.pos = i + 1
				if !slow {
					return s.buf[start+1 : i], nil
				}
				var out string
				err := json.Unmarshal(s.buf[start:i+1], &out)
				return []byte(out), err
			case c == '\\':
				slow, esc = true, true
			case c < 0x20:
				return nil, s.unexpected(c, "a string without control characters")
			case c >= 0x80:
				slow = true
			}
		}
		if !s.refill(start) {
			return nil, s.unexpected(0, "")
		}
		start, i = 0, i-start
	}
}

// quoted reads the string that must come next.
func (s *Scanner) quoted() ([]byte, error) {
	if c := s.peek(); c != '"' {
		return nil, s.unexpected(c, "a string")
	}
	return s.str()
}

// uint reads a JSON number that is a plain unsigned integer — what
// encoding/json stores into a uint64: no sign, fraction, exponent or leading
// zero, below 2^64 — or null, which leaves *v alone.
func (s *Scanner) uint(v *uint64) error {
	if s.peek() == 'n' {
		return s.lit("null")
	}
	var acc uint64
	for n := 0; ; n++ {
		c := s.cur()
		d := uint64(c - '0')
		if d > 9 && n > 0 {
			*v = acc
			return nil
		}
		if d > 9 || (n == 1 && acc == 0) || !pushDigit(&acc, d, n) {
			return s.unexpected(c, "an unsigned integer below 2^64")
		}
		s.pos++
	}
}

// pushDigit appends decimal digit d, the nth so far, to *acc and reports
// whether the result still fits a uint64; the first 19 digits always do.
func pushDigit(acc *uint64, d uint64, n int) bool {
	if n >= 19 && *acc > (math.MaxUint64-d)/10 {
		return false
	}
	*acc = *acc*10 + d
	return true
}

// boolean reads true or false into *v, or null, which leaves it alone.
func (s *Scanner) boolean(v *bool) error {
	switch c := s.peek(); c {
	case 't':
		*v = true
		return s.lit("true")
	case 'f':
		*v = false
		return s.lit("false")
	case 'n':
		return s.lit("null")
	default:
		return s.unexpected(c, "true or false")
	}
}

// digits consumes a run of decimal digits and reports whether it had any.
func (s *Scanner) digits() bool {
	n := 0
	for c := s.cur(); c >= '0' && c <= '9'; c = s.cur() {
		s.pos++
		n++
	}
	return n > 0
}

// number consumes any JSON number; only skipped values have one.
func (s *Scanner) number() error {
	s.eat('-')
	ok := s.eat('0') || s.digits()
	if ok && s.eat('.') {
		ok = s.digits()
	}
	if ok && (s.eat('e') || s.eat('E')) {
		_ = s.eat('+') || s.eat('-')
		ok = s.digits()
	}
	if !ok {
		return s.unexpected(s.cur(), "a digit")
	}
	return nil
}

// elem steps to the next element of the array being read; it reports false
// once the closing ']' is consumed. The ']' of a trailing comma is left for
// the value reader to reject.
func (s *Scanner) elem(first bool) (bool, error) {
	switch {
	case s.peek() == ']':
		s.pos++
		return false, nil
	case first:
		return true, nil
	}
	return true, s.want(',')
}

// member steps to the next member of the object being read and returns its
// decoded name, valid until the scanner reads on — the caller's want(':');
// ok is false once the closing '}' is consumed.
func (s *Scanner) member(first bool) (name []byte, ok bool, err error) {
	if s.peek() == '}' {
		s.pos++
		return nil, false, nil
	}
	if !first {
		err = s.want(',')
	}
	if err == nil {
		name, err = s.quoted()
	}
	return name, err == nil, err
}

// skip consumes the value of an unknown field, validating it as
// encoding/json would; it may open depth more containers.
func (s *Scanner) skip(depth int) error {
	c := s.peek()
	switch {
	case c == '"':
		_, err := s.str()
		return err
	case c == 't' || c == 'f' || c == 'n':
		var b bool
		return s.boolean(&b)
	case c == '-' || (c >= '0' && c <= '9'):
		return s.number()
	case c != '{' && c != '[':
		return s.unexpected(c, "a value")
	case depth == 0:
		return ErrTooDeep
	}
	s.pos++
	for first := true; ; first = false {
		if c == '[' {
			if ok, err := s.elem(first); err != nil || !ok {
				return err
			}
		} else if _, ok, err := s.member(first); err != nil || !ok {
			return err
		} else if err := s.want(':'); err != nil {
			return err
		}
		if err := s.skip(depth - 1); err != nil {
			return err
		}
	}
}
