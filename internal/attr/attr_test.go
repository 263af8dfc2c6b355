package attr

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"github.com/cercs/iqrudp/internal/race"
)

func TestValueConstructorsAndConversions(t *testing.T) {
	if !Int(7).Valid() || Int(7).Kind() != KindInt {
		t.Fatal("Int constructor broken")
	}
	var zero Value
	if zero.Valid() {
		t.Fatal("zero Value should be invalid")
	}
	cases := []struct {
		v     Value
		asI   int64
		asF   float64
		asB   bool
		asStr string
	}{
		{Int(42), 42, 42, true, "42"},
		{Int(0), 0, 0, false, "0"},
		{Float(2.5), 2, 2.5, true, "2.5"},
		{Bool(true), 1, 1, true, "true"},
		{Bool(false), 0, 0, false, "false"},
		{String_("17"), 17, 17, false, "17"},
		{String_("true"), 0, 0, true, "true"},
	}
	for _, c := range cases {
		if c.v.AsInt() != c.asI {
			t.Errorf("%v AsInt = %d, want %d", c.v, c.v.AsInt(), c.asI)
		}
		if c.v.AsFloat() != c.asF {
			t.Errorf("%v AsFloat = %v, want %v", c.v, c.v.AsFloat(), c.asF)
		}
		if c.v.AsBool() != c.asB {
			t.Errorf("%v AsBool = %v, want %v", c.v, c.v.AsBool(), c.asB)
		}
		if c.v.String() != c.asStr {
			t.Errorf("%v String = %q, want %q", c.v, c.v.String(), c.asStr)
		}
	}
}

func TestValueEqual(t *testing.T) {
	if !Int(1).Equal(Int(1)) || Int(1).Equal(Int(2)) {
		t.Fatal("int equality broken")
	}
	if Int(1).Equal(Float(1)) {
		t.Fatal("cross-kind values must not be equal")
	}
	if !Float(math.NaN()).Equal(Float(math.NaN())) {
		t.Fatal("NaN floats should compare equal for list equality")
	}
}

func TestKindString(t *testing.T) {
	if KindInt.String() != "int" || KindFloat.String() != "float" ||
		KindString.String() != "string" || KindBool.String() != "bool" {
		t.Fatal("kind names wrong")
	}
	if !strings.Contains(Kind(99).String(), "99") {
		t.Fatal("unknown kind should include numeric value")
	}
}

func TestListSetGetDelete(t *testing.T) {
	l := NewList()
	if l.Len() != 0 || l.Has("x") {
		t.Fatal("fresh list should be empty")
	}
	l.Set("a", Int(1))
	l.Set("b", Float(0.5))
	l.Set("a", Int(2)) // overwrite
	if l.Len() != 2 {
		t.Fatalf("len = %d, want 2", l.Len())
	}
	if v, ok := l.Get("a"); !ok || v.AsInt() != 2 {
		t.Fatalf("a = %v/%v", v, ok)
	}
	if !l.Delete("a") || l.Delete("a") {
		t.Fatal("delete semantics broken")
	}
	if l.Len() != 1 {
		t.Fatalf("len after delete = %d", l.Len())
	}
}

func TestListTypedGetters(t *testing.T) {
	l := NewList(Attr{"loss", Float(0.25)}, Attr{"n", Int(9)}, Attr{"on", Bool(true)})
	if f, err := l.Float("loss"); err != nil || f != 0.25 {
		t.Fatalf("Float = %v/%v", f, err)
	}
	if _, err := l.Float("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing Float err = %v", err)
	}
	if n, err := l.Int("n"); err != nil || n != 9 {
		t.Fatalf("Int = %v/%v", n, err)
	}
	if l.FloatOr("nope", 7.5) != 7.5 || l.FloatOr("loss", 0) != 0.25 {
		t.Fatal("FloatOr broken")
	}
	if l.IntOr("nope", 3) != 3 || l.IntOr("n", 0) != 9 {
		t.Fatal("IntOr broken")
	}
	if !l.BoolOr("on", false) || l.BoolOr("off", true) != true {
		t.Fatal("BoolOr broken")
	}
}

func TestListCloneMergeEqual(t *testing.T) {
	l := NewList(Attr{"a", Int(1)}, Attr{"b", Int(2)})
	c := l.Clone()
	c.Set("a", Int(99))
	if v, _ := l.Get("a"); v.AsInt() != 1 {
		t.Fatal("Clone is not a deep copy")
	}
	o := NewList(Attr{"b", Int(3)}, Attr{"c", Int(4)})
	l.Merge(o)
	if v, _ := l.Get("b"); v.AsInt() != 3 {
		t.Fatal("Merge did not overwrite")
	}
	if l.Len() != 3 {
		t.Fatalf("len after merge = %d", l.Len())
	}
	x := NewList(Attr{"k", Int(1)}, Attr{"m", Int(2)})
	y := NewList(Attr{"m", Int(2)}, Attr{"k", Int(1)})
	if !x.Equal(y) {
		t.Fatal("order must not affect Equal")
	}
	y.Set("m", Int(5))
	if x.Equal(y) {
		t.Fatal("different values compare equal")
	}
	var nilList *List
	if nilList.Len() != 0 {
		t.Fatal("nil list Len should be 0")
	}
	if _, ok := nilList.Get("a"); ok {
		t.Fatal("nil list Get should miss")
	}
	if nilList.Clone() != nil {
		t.Fatal("nil Clone should be nil")
	}
}

func TestListString(t *testing.T) {
	l := NewList(Attr{"b", Int(2)}, Attr{"a", Int(1)})
	if got := l.String(); got != "{a=1 b=2}" {
		t.Fatalf("String = %q", got)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	l := NewList(
		Attr{AdaptPktSize, Float(0.3)},
		Attr{AdaptWhen, Int(20)},
		Attr{Marked, Bool(true)},
		Attr{"note", String_("hello world")},
	)
	b, err := Encode(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != l.EncodedSize() {
		t.Fatalf("EncodedSize = %d, actual %d", l.EncodedSize(), len(b))
	}
	got, n, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(b) {
		t.Fatalf("consumed %d of %d bytes", n, len(b))
	}
	if !got.Equal(l) {
		t.Fatalf("round trip mismatch: %v vs %v", got, l)
	}
}

func TestEncodeEmptyAndNil(t *testing.T) {
	for _, l := range []*List{nil, NewList()} {
		b, err := Encode(l)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) != 1 || b[0] != 0 {
			t.Fatalf("empty encoding = %v", b)
		}
		got, n, err := Decode(b)
		if err != nil || n != 1 || got.Len() != 0 {
			t.Fatalf("empty decode = %v/%d/%v", got, n, err)
		}
	}
}

func TestDecodeTruncated(t *testing.T) {
	l := NewList(Attr{"abc", Int(5)}, Attr{"s", String_("xyz")})
	b, err := Encode(l)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(b); cut++ {
		if _, _, err := Decode(b[:cut]); err == nil && cut < len(b) {
			// Prefixes that happen to form a valid shorter block are only
			// acceptable if they decode fewer attributes.
			got, _, _ := Decode(b[:cut])
			if got.Len() >= l.Len() {
				t.Fatalf("truncation at %d not detected", cut)
			}
		}
	}
	if _, _, err := Decode(nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("nil decode err = %v", err)
	}
}

func TestDecodeBadKind(t *testing.T) {
	b := []byte{1, 1, 'x', 200}
	if _, _, err := Decode(b); !errors.Is(err, ErrBadKind) {
		t.Fatalf("bad kind err = %v", err)
	}
}

func TestEncodeLimits(t *testing.T) {
	l := &List{}
	for i := 0; i < MaxWireAttrs+1; i++ {
		l.Set(string(rune('a'))+string(rune('0'+i%10))+string(rune('0'+(i/10)%10))+string(rune('0'+(i/100)%10)), Int(int64(i)))
	}
	if _, err := Encode(l); !errors.Is(err, ErrTooMany) {
		t.Fatalf("too-many err = %v", err)
	}
	long := strings.Repeat("n", MaxNameLen+1)
	if _, err := Encode(NewList(Attr{long, Int(1)})); !errors.Is(err, ErrNameTooLong) {
		t.Fatalf("long-name err = %v", err)
	}
}

// Property: encode/decode round-trips arbitrary lists built from generated
// names and mixed-kind values.
func TestQuickCodecRoundTrip(t *testing.T) {
	f := func(names []string, ints []int64, floats []float64, strs []string) bool {
		l := &List{}
		for i, name := range names {
			if len(name) == 0 || len(name) > MaxNameLen {
				continue
			}
			switch i % 4 {
			case 0:
				if len(ints) > 0 {
					l.Set(name, Int(ints[i%len(ints)]))
				}
			case 1:
				if len(floats) > 0 {
					l.Set(name, Float(floats[i%len(floats)]))
				}
			case 2:
				if len(strs) > 0 && len(strs[i%len(strs)]) < 1000 {
					l.Set(name, String_(strs[i%len(strs)]))
				}
			case 3:
				l.Set(name, Bool(i%2 == 0))
			}
			if l.Len() >= MaxWireAttrs {
				break
			}
		}
		b, err := Encode(l)
		if err != nil {
			return false
		}
		got, n, err := Decode(b)
		if err != nil || n != len(b) {
			return false
		}
		return got.Equal(l)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Decode never panics and never over-reads arbitrary input.
func TestQuickDecodeRobust(t *testing.T) {
	f := func(b []byte) bool {
		l, n, err := Decode(b)
		if err != nil {
			return true
		}
		if n > len(b) {
			return false
		}
		// A successful decode must re-encode (names unique by construction).
		_, err2 := Encode(l)
		return err2 == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryBasics(t *testing.T) {
	r := NewRegistry()
	if _, ok := r.Get(NetLoss); ok {
		t.Fatal("fresh registry should be empty")
	}
	var notified []string
	r.Watch(NetLoss, func(name string, v Value) {
		notified = append(notified, name+"="+v.String())
	})
	count := 0
	r.WatchAll(func(string, Value) { count++ })
	r.Set(NetLoss, Float(0.1))
	r.Set(NetRTT, Float(0.03))
	if len(notified) != 1 || notified[0] != "NET_LOSS=0.1" {
		t.Fatalf("named watcher calls = %v", notified)
	}
	if count != 2 {
		t.Fatalf("catch-all watcher calls = %d, want 2", count)
	}
	if r.FloatOr(NetRTT, 0) != 0.03 {
		t.Fatal("FloatOr miss")
	}
	if r.FloatOr("missing", 1.5) != 1.5 {
		t.Fatal("FloatOr default broken")
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
	snap := r.Snapshot()
	if snap.Len() != 2 || snap.FloatOr(NetLoss, 0) != 0.1 {
		t.Fatalf("snapshot = %v", snap)
	}
}

func TestRegistryWatcherReentrancy(t *testing.T) {
	r := NewRegistry()
	r.Watch("a", func(string, Value) {
		// Watchers may call back into the registry.
		r.Set("b", Int(1))
	})
	r.Set("a", Int(1))
	if _, ok := r.Get("b"); !ok {
		t.Fatal("reentrant Set from watcher failed")
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	done := make(chan struct{})
	go func() {
		for i := 0; i < 1000; i++ {
			r.Set(NetLoss, Float(float64(i)))
		}
		close(done)
	}()
	for i := 0; i < 1000; i++ {
		r.Get(NetLoss)
		r.Snapshot()
	}
	<-done
}

// TestDecodeInternsReservedNames pins the interning in Decode: a block of
// reserved names (the handshake's LOSS_TOLERANCE and FEC_GROUP) costs only
// the list and its backing array, while an application-defined name is
// still copied out of the wire buffer.
func TestDecodeInternsReservedNames(t *testing.T) {
	known, err := Encode(NewList(Attr{LossTolerance, Float(0.3)}, Attr{FECGroup, Int(16)}))
	if err != nil {
		t.Fatal(err)
	}
	custom, err := Encode(NewList(Attr{LossTolerance, Float(0.3)}, Attr{"app.note", Int(1)}))
	if err != nil {
		t.Fatal(err)
	}
	l, _, err := Decode(custom)
	if err != nil {
		t.Fatal(err)
	}
	for i := range custom {
		custom[i] = 0 // the decoded list must not alias the wire buffer
	}
	if v, ok := l.Get("app.note"); !ok || v.AsInt() != 1 || l.FloatOr(LossTolerance, 0) != 0.3 {
		t.Fatalf("decoded list changed with its wire buffer: %v", l)
	}
	if race.Enabled {
		return
	}
	if n := testing.AllocsPerRun(100, func() { _, _, _ = Decode(known) }); n != 2 {
		t.Fatalf("decoding two reserved names allocates %v, want 2 (list + backing array)", n)
	}
}

// TestRegistryZeroValue checks that a zero Registry (as embedded in a
// connection's machine) works without NewRegistry.
func TestRegistryZeroValue(t *testing.T) {
	var r Registry
	if _, ok := r.Get(NetLoss); ok || r.Len() != 0 || r.Snapshot().Len() != 0 {
		t.Fatal("zero registry should be empty")
	}
	seen := 0
	r.Watch(NetLoss, func(string, Value) { seen++ })
	r.Set(NetLoss, Float(0.2))
	if seen != 1 || r.FloatOr(NetLoss, 0) != 0.2 {
		t.Fatalf("zero registry: watcher calls %d, value %v", seen, r.FloatOr(NetLoss, 0))
	}
}
