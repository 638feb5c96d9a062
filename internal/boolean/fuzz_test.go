package boolean

import "testing"

// FuzzParseSet checks the set parser never panics and that accepted
// sets round-trip through Format.
func FuzzParseSet(f *testing.F) {
	seeds := []string{
		"{111, 011}",
		"111 011",
		"111,011",
		"{}",
		"",
		"{11101}",
		"1x1",
		"{111, 01}",
		"  {110, 110}  ",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	u := MustUniverse(3)
	f.Fuzz(func(t *testing.T, s string) {
		set, err := ParseSet(u, s)
		if err != nil {
			return
		}
		back, err := ParseSet(u, set.Format(u))
		if err != nil {
			t.Fatalf("formatted set %q does not re-parse: %v", set.Format(u), err)
		}
		if !back.Equal(set) {
			t.Fatalf("round trip changed set: %s -> %s", set.Format(u), back.Format(u))
		}
	})
}

// FuzzTupleParse checks the tuple parser against its formatter.
func FuzzTupleParse(f *testing.F) {
	for _, s := range []string{"000000", "111111", "101010", "11111", "abc", ""} {
		f.Add(s)
	}
	u := MustUniverse(6)
	f.Fuzz(func(t *testing.T, s string) {
		tp, err := u.Parse(s)
		if err != nil {
			return
		}
		if got := u.Format(tp); got != s {
			t.Fatalf("Format(Parse(%q)) = %q", s, got)
		}
	})
}

// FuzzParseKey checks that ParseKey accepts exactly the strings Key
// produces: anything it parses must re-encode to the same string.
func FuzzParseKey(f *testing.F) {
	for _, s := range []string{"", "0", "0,a,ff", "A", "01", "b,a", "a,a", ",", "1,", "ffffffffffffffff", "10000000000000000", " 1", "g"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, key string) {
		s, err := ParseKey(key)
		if err != nil {
			return
		}
		if got := s.Key(); got != key {
			t.Fatalf("ParseKey(%q).Key() = %q", key, got)
		}
	})
}
