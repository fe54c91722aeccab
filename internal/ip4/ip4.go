// Package ip4 provides compact IPv4 address and prefix value types used
// throughout the dynaddr codebase.
//
// The standard library's netip types would work, but the analysis and the
// simulator manipulate millions of addresses as map keys and sort keys; a
// bare uint32 representation keeps those paths allocation-free and makes
// prefix arithmetic (mask extraction, containment, iteration) explicit.
package ip4

import (
	"fmt"
	"strconv"
	"strings"
)

// Addr is an IPv4 address in host byte order. The zero value is 0.0.0.0,
// which the package treats as "unset" (see IsValid).
type Addr uint32

// FromOctets assembles an address from its four dotted-quad octets.
func FromOctets(a, b, c, d byte) Addr {
	return Addr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// ParseAddr parses a dotted-quad IPv4 address such as "192.0.2.7".
// Errors quote a copy of s, so s does not escape: ParseAddr(string(b))
// does not allocate.
func ParseAddr(s string) (Addr, error) {
	var parts [4]uint64
	rest := s
	for i := 0; i < 4; i++ {
		var tok string
		if i < 3 {
			dot := strings.IndexByte(rest, '.')
			if dot < 0 {
				return 0, fmt.Errorf("ip4: invalid address %q: want 4 octets", strings.Clone(s))
			}
			tok, rest = rest[:dot], rest[dot+1:]
		} else {
			tok = rest
		}
		if tok == "" {
			return 0, fmt.Errorf("ip4: invalid address %q: empty octet", strings.Clone(s))
		}
		v, err := strconv.ParseUint(tok, 10, 8)
		if err != nil {
			return 0, fmt.Errorf("ip4: invalid address %q: %v", strings.Clone(s), err)
		}
		parts[i] = v
	}
	return FromOctets(byte(parts[0]), byte(parts[1]), byte(parts[2]), byte(parts[3])), nil
}

// MustParseAddr is ParseAddr that panics on error; for tests and constants.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// IsValid reports whether a is not the zero (unset) address.
func (a Addr) IsValid() bool { return a != 0 }

// Octets returns the four dotted-quad octets of a.
func (a Addr) Octets() (byte, byte, byte, byte) {
	return byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)
}

// String formats a in dotted-quad notation.
func (a Addr) String() string {
	o1, o2, o3, o4 := a.Octets()
	// strconv.AppendUint into a stack buffer keeps this allocation-light;
	// address formatting is on the hot path of dataset serialization.
	buf := make([]byte, 0, 15)
	buf = strconv.AppendUint(buf, uint64(o1), 10)
	buf = append(buf, '.')
	buf = strconv.AppendUint(buf, uint64(o2), 10)
	buf = append(buf, '.')
	buf = strconv.AppendUint(buf, uint64(o3), 10)
	buf = append(buf, '.')
	buf = strconv.AppendUint(buf, uint64(o4), 10)
	return string(buf)
}

// Slash8 returns the enclosing /8 prefix of a.
func (a Addr) Slash8() Prefix { return PrefixFrom(a, 8) }

// Slash16 returns the enclosing /16 prefix of a.
func (a Addr) Slash16() Prefix { return PrefixFrom(a, 16) }

// Slash24 returns the enclosing /24 prefix of a.
func (a Addr) Slash24() Prefix { return PrefixFrom(a, 24) }

// Prefix returns the enclosing prefix of a with the given length.
func (a Addr) Prefix(bits int) (Prefix, error) {
	if bits < 0 || bits > 32 {
		return Prefix{}, fmt.Errorf("ip4: prefix length %d out of range", bits)
	}
	return PrefixFrom(a, bits), nil
}

func mask(bits int) Addr {
	if bits <= 0 {
		return 0
	}
	return Addr(^uint32(0) << (32 - uint(bits)))
}

// Prefix is an IPv4 CIDR prefix. The zero value is invalid (use IsValid).
type Prefix struct {
	addr Addr
	bits uint8
	set  bool // distinguishes the zero Prefix from a genuine 0.0.0.0/0
}

// PrefixFrom builds a prefix from an address and a length, masking host
// bits. It panics if bits is out of [0,32]; constructing prefixes from
// untrusted input should go through ParsePrefix instead.
func PrefixFrom(a Addr, bits int) Prefix {
	if bits < 0 || bits > 32 {
		panic(fmt.Sprintf("ip4: prefix length %d out of range", bits))
	}
	return Prefix{addr: a & mask(bits), bits: uint8(bits), set: true}
}

// ParsePrefix parses CIDR notation such as "91.55.0.0/16".
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.LastIndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("ip4: invalid prefix %q: missing '/'", s)
	}
	a, err := ParseAddr(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	bits, err := strconv.Atoi(s[slash+1:])
	if err != nil || bits < 0 || bits > 32 {
		return Prefix{}, fmt.Errorf("ip4: invalid prefix length in %q", s)
	}
	if a&mask(bits) != a {
		return Prefix{}, fmt.Errorf("ip4: prefix %q has host bits set", s)
	}
	return Prefix{addr: a, bits: uint8(bits), set: true}, nil
}

// MustParsePrefix is ParsePrefix that panics on error.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// IsValid reports whether p was constructed (as opposed to the zero value).
func (p Prefix) IsValid() bool { return p.set }

// Addr returns the network address of p.
func (p Prefix) Addr() Addr { return p.addr }

// Bits returns the prefix length of p.
func (p Prefix) Bits() int { return int(p.bits) }

// Contains reports whether a lies inside p.
func (p Prefix) Contains(a Addr) bool {
	return p.set && a&mask(int(p.bits)) == p.addr
}

// Overlaps reports whether p and q share any address.
func (p Prefix) Overlaps(q Prefix) bool {
	if !p.set || !q.set {
		return false
	}
	if p.bits <= q.bits {
		return q.addr&mask(int(p.bits)) == p.addr
	}
	return p.addr&mask(int(q.bits)) == q.addr
}

// NumAddrs returns the number of addresses covered by p.
func (p Prefix) NumAddrs() uint64 { return 1 << (32 - uint(p.bits)) }

// First returns the first (network) address in p.
func (p Prefix) First() Addr { return p.addr }

// Last returns the last (broadcast) address in p.
func (p Prefix) Last() Addr { return p.addr | ^mask(int(p.bits)) }

// Nth returns the i'th address in p, wrapping modulo the prefix size so
// that deterministic pool allocation can index past the end safely.
func (p Prefix) Nth(i uint64) Addr {
	return p.addr + Addr(i%p.NumAddrs())
}

// String formats p in CIDR notation.
func (p Prefix) String() string {
	if !p.set {
		return "invalid"
	}
	return p.addr.String() + "/" + strconv.Itoa(int(p.bits))
}

// Compare orders prefixes by network address, then by length (shorter
// first). It returns -1, 0, or +1.
func (p Prefix) Compare(q Prefix) int {
	switch {
	case p.addr < q.addr:
		return -1
	case p.addr > q.addr:
		return 1
	case p.bits < q.bits:
		return -1
	case p.bits > q.bits:
		return 1
	default:
		return 0
	}
}

// TestingAddr is the RIPE NCC address 193.0.0.78 used to test probes
// before shipping them to volunteers (paper §3.3). Connection-log entries
// from this address are filtered before analysis.
var TestingAddr = FromOctets(193, 0, 0, 78)
