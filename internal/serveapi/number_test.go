package serveapi

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"math/big"
	"math/rand/v2"
	"slices"
	"strconv"
	"strings"
	"testing"

	"odin/internal/synth"
)

// Conversion tiers, as number.value and float pick them.
const (
	tierClinger = iota
	tierEiselLemire
	tierStrconv
)

var tierNames = [...]string{"Clinger", "Eisel–Lemire", "strconv"}

// parseNumber runs tok through the decoder as a pixel: v and err are what
// float returns, tier which conversion produced v.
func parseNumber(tok string) (v float64, tier int, err error) {
	d := decoder{b: []byte(tok), frame: -1}
	t, n := d.number()
	if d.err == nil && d.i != len(d.b) {
		return 0, 0, fmt.Errorf("token ends at byte %d of %d", d.i, len(d.b))
	}
	switch _, ok := n.value(d.err == nil && t[0] == '-'); {
	case !ok:
		tier = tierStrconv
	case n.mant < 1<<53 && n.frac < len(pow10):
		tier = tierClinger
	default:
		tier = tierEiselLemire
	}
	d = decoder{b: []byte(tok), frame: -1}
	return d.float(), tier, d.err
}

// numberTokens spells every class of token TestParseNumberMatchesStrconv
// checks, about perClass of each, deterministically.
func numberTokens(perClass int) map[string][]string {
	r := rand.New(rand.NewPCG(22, 1))
	digitRun := func(n int) string { // n digits, the first nonzero
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('0' + r.IntN(10))
		}
		b[0] = byte('1' + r.IntN(9))
		return string(b)
	}
	point := func(s string) string { // a point somewhere inside, or none
		if k := r.IntN(len(s) + 1); k > 0 && k < len(s) {
			return s[:k] + "." + s[k:]
		}
		return s
	}
	shortest := func(x float64) string { return strconv.FormatFloat(x, 'f', -1, 64) }

	c := map[string][]string{}
	add := func(class, tok string) {
		c[class] = append(c[class], tok)
		if tok[0] != '-' { // every class once more with a sign
			c["negative"] = append(c["negative"], "-"+tok)
		}
	}
	for range perClass {
		x := r.Float64()
		add("shortest [0,1)", shortest(x))
		add("shortest ×1e6", shortest(x*1e6))
		add("shortest ×1e-6", shortest(x*1e-6))
		add("fixed 0–19", strconv.FormatFloat(x*math.Pow10(r.IntN(7)), 'f', r.IntN(20), 64))
		add("leading-zero fraction", "0."+strings.Repeat("0", 1+r.IntN(12))+digitRun(1+r.IntN(19)))
		add("19/20 significant", point(digitRun(19+r.IntN(2))))
		add("19/20 significant", "0."+strings.Repeat("0", r.IntN(9))+digitRun(19+r.IntN(2)))

		// An integer exactly halfway between two float64s (ties go to
		// even), or one off it, with or without a point: in [2^(53+s),
		// 2^(54+s)) float64s are 2^(s+1) apart.
		s := r.IntN(11)
		m := (uint64(1)<<(53+s)|r.Uint64()&(1<<(53+s)-1))&^(1<<(s+1)-1) | 1<<s
		m = m + uint64(r.IntN(3)) - 1
		if m < 1e19 {
			add("halfway", point(strconv.FormatUint(m, 10)))
		}
	}
	for d := -64; d <= 64; d++ {
		for _, base := range []*big.Int{
			big.NewInt(1 << 53),
			new(big.Int).Lsh(big.NewInt(1), 64),
			new(big.Int).Exp(big.NewInt(10), big.NewInt(19), nil),
		} {
			s := new(big.Int).Add(base, big.NewInt(int64(d))).String()
			add("2⁵³/2⁶⁴/10¹⁹ boundaries", s)
			add("2⁵³/2⁶⁴/10¹⁹ boundaries", point(s))
		}
	}
	for _, tok := range []string{"0", "-0", "0.0", "-0.0", "0.000", "1", "9007199254740993",
		"0.0024711858062433315", "9999999999999999999", "18446744073709551615", "0.9999999999999999999"} {
		add("fixed tokens", tok)
	}
	return c
}

// pixelTokens spells the pixels of n synth frames of sub the way the
// wire does.
func pixelTokens(tb testing.TB, sub synth.Subset, n int) []string {
	var toks []string
	for _, f := range synth.NewSceneGen(1, synth.DefaultSceneConfig()).Dataset(sub, n) {
		b, err := json.Marshal(f.Image.Pix)
		if err != nil {
			tb.Fatal(err)
		}
		toks = append(toks, strings.Split(strings.Trim(string(b), "[]"), ",")...)
	}
	return toks
}

// TestParseNumberMatchesStrconv holds the decoder's own conversion to
// strconv.ParseFloat bit for bit, with no tolerance, over ~10⁶ tokens of
// every shape the tiers distinguish — and pins that no pixel a client
// sends needs strconv at all.
func TestParseNumberMatchesStrconv(t *testing.T) {
	perClass := 60000
	if testing.Short() {
		perClass = 6000
	}
	check := func(class string, toks []string) (tiers [3]int) {
		for _, tok := range toks {
			got, tier, err := parseNumber(tok)
			want, werr := strconv.ParseFloat(tok, 64)
			if err != nil || werr != nil {
				t.Fatalf("%s %q: decoder %v, strconv %v", class, tok, err, werr)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s %q: %v (%#x) by %s, strconv says %v (%#x)",
					class, tok, got, math.Float64bits(got), tierNames[tier], want, math.Float64bits(want))
			}
			tiers[tier]++
		}
		t.Logf("%-24s %7d tokens: %s", class, len(toks), shares(tiers))
		return tiers
	}
	classes := numberTokens(perClass)
	total := 0
	for _, class := range slices.Sorted(maps.Keys(classes)) {
		check(class, classes[class])
		total += len(classes[class])
	}
	t.Logf("%d tokens", total)

	for _, sub := range []synth.Subset{synth.NightData, synth.DayData, synth.SnowData} {
		if tiers := check(sub.String()+" pixels", pixelTokens(t, sub, 4)); tiers[tierStrconv] != 0 {
			t.Errorf("%s: %d pixel tokens reached strconv, want none", sub, tiers[tierStrconv])
		}
	}
}

func shares(tiers [3]int) string {
	n := float64(tiers[0] + tiers[1] + tiers[2])
	var s []string
	for i, k := range tiers {
		s = append(s, fmt.Sprintf("%s %.1f%%", tierNames[i], 100*float64(k)/n))
	}
	return strings.Join(s, ", ")
}

// TestPowersOfTen re-derives every row of the Eisel–Lemire table: the 128
// bits of 10^e rounded down, top bit set, at the binary exponent
// eiselLemire implies, 217706·e>>16 = ⌊log₂ 10^e⌋.
func TestPowersOfTen(t *testing.T) {
	for row, got := range powersOfTen {
		e := powersOfTenMinExp10 + row
		exp2 := 217706 * e >> 16
		// 10^e·2^(127−exp2), with e ≤ 0 so the division floors.
		m := new(big.Int).Lsh(big.NewInt(1), uint(127-exp2))
		m.Quo(m, new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(-e)), nil))
		if m.BitLen() != 128 {
			t.Errorf("1e%d: mantissa has %d bits at 2^%d, want 128", e, m.BitLen(), exp2)
		}
		lo := new(big.Int).And(m, new(big.Int).SetUint64(math.MaxUint64)).Uint64()
		hi := new(big.Int).Rsh(m, 64).Uint64()
		if got != [2]uint64{lo, hi} {
			t.Errorf("1e%d: row {%#016x, %#016x}, want {%#016x, %#016x}", e, got[0], got[1], lo, hi)
		}
	}
	if powersOfTenMinExp10+len(powersOfTen)-1 != 0 {
		t.Errorf("table covers 1e%d…1e%d, want …1e0", powersOfTenMinExp10, powersOfTenMinExp10+len(powersOfTen)-1)
	}
}

// FuzzDecodeNumber: any bytes as a pixel of a body, first in its array and
// after another pixel (pix's two ways in). What the decoder accepts,
// encoding/json decodes to the same bits — and when the bytes are one JSON
// number, so does strconv; what encoding/json and strconv both accept in
// range, the decoder accepts.
func FuzzDecodeNumber(f *testing.F) {
	// The boundary tokens are the committed corpus, testdata/fuzz/FuzzDecodeNumber;
	// these are what clients send.
	for _, sub := range []synth.Subset{synth.NightData, synth.DayData, synth.SnowData} {
		for _, tok := range pixelTokens(f, sub, 1)[:4] {
			f.Add([]byte(tok))
		}
	}
	f.Fuzz(func(t *testing.T, tok []byte) {
		trimmed := strings.Trim(string(tok), " \t\n\r")
		want, serr := strconv.ParseFloat(trimmed, 64)
		single := json.Valid(tok) && serr == nil
		// As the first pixel the token goes through float; after one,
		// through pix's fused step whenever it has that step's shape.
		for at, body := range [][]byte{[]byte(numbersBody(string(tok))), []byte(fusedBody(string(tok)))} {
			got, err := DecodeRequest(body)
			if err != nil {
				if single {
					t.Fatalf("%q at %d: rejected (%v), but encoding/json and strconv accept it", tok, at, err)
				}
				continue
			}
			var ref QueryRequest
			if err := json.Unmarshal(body, &ref); err != nil {
				t.Fatalf("%q at %d: accepted, but encoding/json says %v", tok, at, err)
			}
			if err := sameRequest(got, ref); err != nil {
				t.Fatalf("%q at %d: %v", tok, at, err)
			}
			if single {
				if g := got.Frames[0].Pix[at]; math.Float64bits(g) != math.Float64bits(want) {
					t.Fatalf("%q at %d: %v (%#x), strconv says %v (%#x)", tok, at, g, math.Float64bits(g), want, math.Float64bits(want))
				}
			}
		}
	})
}
