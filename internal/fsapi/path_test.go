package fsapi

import (
	"errors"
	"strings"
	"testing"
)

// sameComps compares component slices treating nil and empty as equal
// (SplitPath may return either for root-resolving paths).
func sameComps(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSplitPathEdgeCases(t *testing.T) {
	long := strings.Repeat("x", MaxNameLen)
	tooLong := long + "x"
	cases := []struct {
		in   string
		want []string
		err  error
	}{
		{"", nil, nil},
		{"/", nil, nil},
		{"//", nil, nil},
		{"///", nil, nil},
		{".", nil, nil},
		{"/.", nil, nil},
		{"/./", nil, nil},
		{"/./.", nil, nil},
		{"..", nil, nil},
		{"/..", nil, nil},
		{"/../..", nil, nil},
		{"/../a", []string{"a"}, nil},
		{"a", []string{"a"}, nil},
		{"/a", []string{"a"}, nil},
		{"a/", []string{"a"}, nil},
		{"/a/", []string{"a"}, nil},
		{"/a//b", []string{"a", "b"}, nil},
		{"//a///b//", []string{"a", "b"}, nil},
		{"/a/b/c", []string{"a", "b", "c"}, nil},
		{"/a/./b", []string{"a", "b"}, nil},
		{"/a/../b", []string{"b"}, nil},
		{"/a/b/../../c", []string{"c"}, nil},
		{"/a/b/../..", nil, nil},
		{"/a/../../b", []string{"b"}, nil}, // ".." never escapes the root
		{"/..a", []string{"..a"}, nil},     // only exactly ".." is special
		{"/a..", []string{"a.."}, nil},
		{"/.hidden", []string{".hidden"}, nil},
		{"/" + long, []string{long}, nil},
		{"/" + tooLong, nil, ErrNameTooLong},
		{"/ok/" + tooLong + "/after", nil, ErrNameTooLong},
	}
	for _, tc := range cases {
		got, err := SplitPath(tc.in)
		if !errors.Is(err, tc.err) {
			t.Errorf("SplitPath(%q) err = %v, want %v", tc.in, err, tc.err)
			continue
		}
		if tc.err == nil && !sameComps(got, tc.want) {
			t.Errorf("SplitPath(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestBaseDirEdgeCases(t *testing.T) {
	cases := []struct {
		in       string
		wantDir  []string
		wantName string
		err      error
	}{
		{"/a", nil, "a", nil},
		{"/a/b", []string{"a"}, "b", nil},
		{"/a/b/c", []string{"a", "b"}, "c", nil},
		{"//a//b//", []string{"a"}, "b", nil},
		{"/a/./b", []string{"a"}, "b", nil},
		{"/a/../b", nil, "b", nil},
		// Paths that resolve to the root have no final name to split off.
		{"/", nil, "", ErrInval},
		{"", nil, "", ErrInval},
		{"/a/..", nil, "", ErrInval},
		{"/.", nil, "", ErrInval},
		{"/" + strings.Repeat("x", MaxNameLen+1), nil, "", ErrNameTooLong},
	}
	for _, tc := range cases {
		dir, name, err := BaseDir(tc.in)
		if !errors.Is(err, tc.err) {
			t.Errorf("BaseDir(%q) err = %v, want %v", tc.in, err, tc.err)
			continue
		}
		if tc.err != nil {
			continue
		}
		if !sameComps(dir, tc.wantDir) || name != tc.wantName {
			t.Errorf("BaseDir(%q) = (%v, %q), want (%v, %q)",
				tc.in, dir, name, tc.wantDir, tc.wantName)
		}
	}
}

func TestJoinPath(t *testing.T) {
	cases := []struct {
		in   []string
		want string
	}{
		{nil, "/"},
		{[]string{}, "/"},
		{[]string{"a"}, "/a"},
		{[]string{"a", "b"}, "/a/b"},
		{[]string{"a", "b", "c"}, "/a/b/c"},
		{[]string{".hidden", "..a"}, "/.hidden/..a"},
	}
	for _, tc := range cases {
		if got := JoinPath(tc.in); got != tc.want {
			t.Errorf("JoinPath(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestSplitJoinRoundTrip checks JoinPath∘SplitPath is the identity on
// canonical paths and canonicalizes everything else to a fixed point.
func TestSplitJoinRoundTrip(t *testing.T) {
	for _, p := range []string{
		"/", "/a", "/a/b/c", "//a//./b/../c", "/..", "/a/../../b",
	} {
		comps, err := SplitPath(p)
		if err != nil {
			t.Fatalf("SplitPath(%q): %v", p, err)
		}
		canon := JoinPath(comps)
		again, err := SplitPath(canon)
		if err != nil {
			t.Fatalf("SplitPath(%q): %v", canon, err)
		}
		if !sameComps(comps, again) {
			t.Errorf("round trip %q: %v -> %q -> %v", p, comps, canon, again)
		}
	}
}

// TestInPlaceWalkAgreesWithSplitPath checks the allocation-free path API
// against SplitPath and BaseDir: same errors; on a plain path the same
// components and the same final name; and a path is plain exactly when it
// has no "." or ".." component.
func TestInPlaceWalkAgreesWithSplitPath(t *testing.T) {
	long := strings.Repeat("x", MaxNameLen+1)
	paths := []string{
		"", "/", "//", "a", "/a", "a/", "/a/b/c", "//a///b//", "/a/./b", "/a/../b", "..", ".",
		"/.hidden/..x/...", "/a/" + long, "/" + long + "/..", "/./" + long, "/a/b/", "/d01/sub/f0001",
	}
	for _, p := range paths {
		want, werr := SplitPath(p)
		plain, err := CheckPath(p)
		if !errors.Is(err, werr) {
			t.Errorf("CheckPath(%q) err = %v, SplitPath says %v", p, err, werr)
			continue
		}
		if err != nil {
			continue
		}
		dotted := false
		var got []string
		for name, i := NextComponent(p, 0); name != ""; name, i = NextComponent(p, i) {
			dotted = dotted || name == "." || name == ".."
			got = append(got, name)
		}
		if plain == dotted {
			t.Errorf("CheckPath(%q) plain = %v, components %q", p, plain, got)
		}
		if !plain {
			continue
		}
		if !sameComps(got, want) {
			t.Errorf("NextComponent over %q = %q, SplitPath = %q", p, got, want)
		}
		dir, name := SplitLast(p)
		wdir, wname, berr := BaseDir(p)
		if (name == "") != (berr != nil) {
			t.Errorf("SplitLast(%q) name = %q, BaseDir err = %v", p, name, berr)
			continue
		}
		if berr != nil {
			continue
		}
		gdir, _ := SplitPath(dir)
		if name != wname || !sameComps(gdir, wdir) {
			t.Errorf("SplitLast(%q) = (%q, %q), BaseDir = (%q, %q)", p, dir, name, wdir, wname)
		}
	}
}

func TestInPlaceWalkDoesNotAllocate(t *testing.T) {
	const p = "/d01/sub/f0001"
	n := testing.AllocsPerRun(100, func() {
		if plain, err := CheckPath(p); !plain || err != nil {
			t.Fatal(plain, err)
		}
		for name, i := NextComponent(p, 0); name != ""; name, i = NextComponent(p, i) {
		}
		SplitLast(p)
	})
	if n != 0 {
		t.Fatalf("%v allocations per walk", n)
	}
}
