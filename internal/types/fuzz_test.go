package types

import (
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"
)

// FuzzInfer checks the type-inference invariants on arbitrary input: no
// panics, results in range, emptiness exactly for blank strings, numeric
// types always parseable, and agreement with the row-level helper.
func FuzzInfer(f *testing.F) {
	f.Add("42")
	f.Add("1,234.5")
	f.Add("(42%)")
	f.Add("2019-03-26")
	f.Add("26 March 2019")
	f.Add("Q1 2019")
	f.Add("-")
	f.Add("  ")
	f.Add("1e309")
	f.Add("£-3,000†")
	f.Add("NaN")
	f.Fuzz(func(t *testing.T, v string) {
		ty := Infer(v)
		if ty >= NumTypes {
			t.Fatalf("Infer(%q) = %d, outside the %d declared types", v, ty, NumTypes)
		}
		if (ty == Empty) != (strings.TrimSpace(v) == "") {
			t.Fatalf("Infer(%q) = %v but blankness is %v", v, ty, strings.TrimSpace(v) == "")
		}
		if ty.IsNumeric() {
			if _, ok := ParseNumber(v); !ok {
				t.Fatalf("Infer(%q) = %v but ParseNumber failed", v, ty)
			}
		}
		if _, ok := ParseNumber(v); ok && !ty.IsNumeric() {
			t.Fatalf("ParseNumber accepts %q but Infer says %v", v, ty)
		}
		if ty == Date && !IsDate(strings.TrimSpace(v)) {
			t.Fatalf("Infer(%q) = date but IsDate rejects it", v)
		}
		if got := RowTypes([]string{v})[0]; got != ty {
			t.Fatalf("RowTypes disagrees with Infer on %q: %v vs %v", v, got, ty)
		}
	})
}

// FuzzParseNumber checks that numeric parsing never panics, is
// deterministic, rejects blanks, and honors the documented
// accounting-negative rule.
func FuzzParseNumber(f *testing.F) {
	f.Add("0")
	f.Add("-1.5e3")
	f.Add("(123.4)")
	f.Add("$ 1,000,000")
	f.Add("99%")
	f.Add("1,23")
	f.Add("12,345")
	f.Add("+0042*")
	f.Add("€.5")
	f.Add("  (  $1,000.25% ) ")
	f.Fuzz(func(t *testing.T, v string) {
		got, ok := ParseNumber(v)
		again, ok2 := ParseNumber(v)
		if ok != ok2 || (ok && got != again && !(math.IsNaN(got) && math.IsNaN(again))) {
			t.Fatalf("ParseNumber(%q) not deterministic: (%v,%v) vs (%v,%v)", v, got, ok, again, ok2)
		}
		if !ok && got != 0 {
			t.Fatalf("ParseNumber(%q) = (%v, false); rejected values must report 0", v, got)
		}
		if ok && strings.TrimSpace(v) == "" {
			t.Fatalf("ParseNumber accepted blank input %q", v)
		}
		// Accounting negatives flip the sign of the inner value.
		s := strings.TrimSpace(v)
		if ok && !math.IsNaN(got) && len(s) >= 2 && s[0] == '(' && s[len(s)-1] == ')' {
			inner, innerOK := ParseNumber(s[1 : len(s)-1])
			if innerOK && got != -inner {
				t.Fatalf("accounting negative %q = %v, want -(%v)", v, got, inner)
			}
		}
	})
}

// FuzzInferOracle pins the allocation-free inference to the oracle copy of
// the original code: every string gets the same type, the same date verdict
// and a bit-identical number. Rejecting a value before strconv sees it must
// also never hide a value strconv would have parsed.
func FuzzInferOracle(f *testing.F) {
	for _, s := range []string{
		"42", "1,234,567", "-1,234.5e3", "1,23", "+-1,000", "(1,000)", "$ 12,345%",
		"1,234,567,890,123,456,789,012,345,678.5", "0x1p-2", "0x_1p0", "1_000",
		"inf", "-Infinity", "+nan", "NaN", "infinit", "1e400", "1e-400", ".5", "5.",
		"2019-03-26", "26/03/2019", "03/26/19", "1.2.3", "0019-01-01",
		"q1-2019", "Q1 2019", "2019q4", "2019 Q1", "Q5 2019", "ſ", "ı", "Qſ2019",
		"Mar-19", "March 2019", "26 March 2019", "APRİL 2019", "SEPT, 2019",
		"march", "May 0", "May 3001", "May +0002019", "May -1", "May 1 2 3",
		"\xffMay 2019", "May 2019", " 12% ", "£-3,000†", "(  $1,000.25% )",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, v string) {
		if got, want := Infer(v), oracleInfer(v); got != want {
			t.Fatalf("Infer(%q) = %v, oracle %v", v, got, want)
		}
		if got, want := IsDate(v), oracleIsDate(v); got != want {
			t.Fatalf("IsDate(%q) = %v, oracle %v", v, got, want)
		}
		got, ok := ParseNumber(v)
		want, wantOK := oracleParseNumber(v)
		if ok != wantOK || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("ParseNumber(%q) = (%v, %v), oracle (%v, %v)", v, got, ok, want, wantOK)
		}
		if !floatSyntax(v) {
			if _, err := strconv.ParseFloat(v, 64); !errors.Is(err, strconv.ErrSyntax) {
				t.Fatalf("floatSyntax rejects %q but strconv.ParseFloat returns %v", v, err)
			}
		}
	})
}
