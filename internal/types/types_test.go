package types

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestInfer(t *testing.T) {
	cases := []struct {
		in   string
		want Type
	}{
		{"", Empty},
		{"   ", Empty},
		{"42", Int},
		{"-7", Int},
		{"+13", Int},
		{"1,234,567", Int},
		{"3.14", Float},
		{"-0.5", Float},
		{"1.2e3", Float},
		{"(123)", Int},
		{"(1,234.5)", Float},
		{"$400", Int},
		{"£3.50", Float},
		{"12%", Int},
		{"12.5%", Float},
		{"45*", Int},
		{"2019", Int}, // bare year counts as int, not date
		{"2019-03-26", Date},
		{"26/03/2019", Date},
		{"03/26/19", Date},
		{"26.03.2019", Date},
		{"March 2019", Date},
		{"26 March 2019", Date},
		{"Mar-19", Date},
		{"2019Q1", Date},
		{"Q1 2019", Date},
		{"hello", String},
		{"Total homicides", String},
		{"N/A", String},
		{"1,2", String},   // bad thousands grouping
		{"12,34", String}, // bad thousands grouping
		{"1..2", String},
		{"March", String}, // bare month name is a word
		{"-", String},
		{"3-4", String},
	}
	for _, c := range cases {
		if got := Infer(c.in); got != c.want {
			t.Errorf("Infer(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParseNumber(t *testing.T) {
	cases := []struct {
		in   string
		want float64
		ok   bool
	}{
		{"42", 42, true},
		{" 42 ", 42, true},
		{"-7.5", -7.5, true},
		{"1,234", 1234, true},
		{"1,234,567.89", 1234567.89, true},
		{"(500)", -500, true},
		{"($1,000)", -1000, true},
		{"$3.99", 3.99, true},
		{"15%", 15, true},
		{"23*", 23, true},
		{"1e6", 1e6, true},
		{"", 0, false},
		{"abc", 0, false},
		{"12,3", 0, false},
		{"()", 0, false},
		{"$", 0, false},
		{"--5", 0, false},
	}
	for _, c := range cases {
		got, ok := ParseNumber(c.in)
		if ok != c.ok {
			t.Errorf("ParseNumber(%q) ok = %v, want %v", c.in, ok, c.ok)
			continue
		}
		if ok && math.Abs(got-c.want) > 1e-9 {
			t.Errorf("ParseNumber(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParseNumberIntRoundTrip(t *testing.T) {
	f := func(n int32) bool {
		got, ok := ParseNumber(fmt.Sprintf("%d", n))
		return ok && got == float64(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseNumberFloatRoundTrip(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		s := fmt.Sprintf("%g", x)
		got, ok := ParseNumber(s)
		if !ok {
			return false
		}
		if x == 0 {
			return got == 0
		}
		return math.Abs(got-x) <= 1e-9*math.Abs(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNumericTypesHaveParseableValues(t *testing.T) {
	// Property: whenever Infer says Int or Float, ParseNumber must succeed.
	inputs := []string{
		"5", "5.5", "(42)", "$9", "1,000", "99%", "-3", "+2.5", "7*",
	}
	for _, in := range inputs {
		if ty := Infer(in); ty.IsNumeric() {
			if _, ok := ParseNumber(in); !ok {
				t.Errorf("Infer(%q)=%v but ParseNumber failed", in, ty)
			}
		}
	}
}

func TestIsDateRejectsNumbers(t *testing.T) {
	for _, in := range []string{"42", "3.14", "1,234", "2019", "1-2-3-4"} {
		if IsDate(in) {
			t.Errorf("IsDate(%q) = true", in)
		}
	}
}

func TestIsDateRejectsBadComponents(t *testing.T) {
	cases := []string{
		"2019-13-01", // month 13
		"2019-00-10", // month 0
		"32/13/2019", // both out of range
		"2019-03-32", // day 32
		"1/2",        // only two parts
		"a/b/c",
	}
	for _, in := range cases {
		if IsDate(in) {
			t.Errorf("IsDate(%q) = true, want false", in)
		}
	}
}

func TestRowTypes(t *testing.T) {
	got := RowTypes([]string{"", "5", "x", "2020-01-01"})
	want := []Type{Empty, Int, String, Date}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("RowTypes[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestTypeString(t *testing.T) {
	if Int.String() != "int" || Float.String() != "float" ||
		Date.String() != "date" || String.String() != "string" || Empty.String() != "empty" {
		t.Error("type names wrong")
	}
}

// TestInferAllocFree pins the allocation-free contract of the inference
// the dialect scorer and the feature extractors run per cell. Only a
// literal out of float64 range still allocates (strconv's range error).
func TestInferAllocFree(t *testing.T) {
	for _, v := range []string{
		"42", "1,234,567.25", "(£1,234)", "12.5%", "Total homicides", "N/A",
		"2019-03-26", "03/26/19", "26 March 2019", "APRİL 2019", "Q1-2019",
		"-", "nan", "Region: North East (excluding London)",
	} {
		if n := testing.AllocsPerRun(100, func() { Infer(v) }); n != 0 {
			t.Errorf("Infer(%q) allocates %.0f times per call", v, n)
		}
	}
}
