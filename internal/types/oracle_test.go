package types

// This file keeps the type inference as it was before it was rewritten to
// run without allocating. FuzzInferOracle pins the rewrite to it: any
// string must get the same type, the same date verdict and bit-identical
// parsed number from both.

import (
	"strconv"
	"strings"
)

// oracleInfer returns the data type of a raw cell value.
func oracleInfer(v string) Type {
	s := strings.TrimSpace(v)
	if s == "" {
		return Empty
	}
	if _, ok := oracleParseNumber(s); ok {
		if oracleLooksIntegral(s) {
			return Int
		}
		return Float
	}
	if oracleIsDate(s) {
		return Date
	}
	return String
}

// oracleLooksIntegral reports whether a string that parsed as a number has no
// fractional part in its written form.
func oracleLooksIntegral(s string) bool {
	return !strings.ContainsAny(s, ".eE") || oracleIsYearLike(s)
}

func oracleIsYearLike(s string) bool {
	if len(s) != 4 {
		return false
	}
	for _, c := range s {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// oracleParseNumber parses a cell value as a number, tolerating statistical-table
// formatting. It reports ok=false for values that are not numbers.
//
// Accepted embellishments: surrounding whitespace, thousands separators
// (1,234,567), a leading currency symbol ($ £ €), a trailing percent sign,
// accounting negatives ((123) == -123), an explicit sign, and a single
// trailing footnote marker (* or †) directly attached to the number.
func oracleParseNumber(v string) (float64, bool) {
	s := strings.TrimSpace(v)
	if s == "" {
		return 0, false
	}

	neg := false
	// Accounting-style negative: (123.4)
	if len(s) >= 2 && s[0] == '(' && s[len(s)-1] == ')' {
		neg = true
		s = strings.TrimSpace(s[1 : len(s)-1])
	}
	// Leading currency symbol.
	for _, cur := range [...]string{"$", "£", "€"} {
		if strings.HasPrefix(s, cur) {
			s = strings.TrimSpace(s[len(cur):])
			break
		}
	}
	// Trailing footnote markers and percent.
	s = strings.TrimRight(s, "*†")
	if strings.HasSuffix(s, "%") {
		s = strings.TrimSpace(s[:len(s)-1])
	}
	if s == "" {
		return 0, false
	}

	// Thousands separators must group digits 3-by-3 to count as numeric;
	// "1,2" or "12,34" are treated as strings.
	if strings.Contains(s, ",") {
		if !oracleValidThousands(s) {
			return 0, false
		}
		s = strings.ReplaceAll(s, ",", "")
	}

	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, false
	}
	if neg {
		f = -f
	}
	return f, true
}

// oracleValidThousands checks that commas in s group the integer part 3-by-3.
func oracleValidThousands(s string) bool {
	body := s
	if i := strings.IndexAny(body, ".eE"); i >= 0 {
		if strings.Contains(body[i:], ",") {
			return false
		}
		body = body[:i]
	}
	body = strings.TrimLeft(body, "+-")
	groups := strings.Split(body, ",")
	if len(groups) < 2 {
		return true
	}
	if len(groups[0]) == 0 || len(groups[0]) > 3 {
		return false
	}
	if !oracleAllDigits(groups[0]) {
		return false
	}
	for _, g := range groups[1:] {
		if len(g) != 3 || !oracleAllDigits(g) {
			return false
		}
	}
	return true
}

func oracleAllDigits(s string) bool {
	if s == "" {
		return false
	}
	for _, c := range s {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// oracleMonthNames are the month words recognized by oracleIsDate (full and 3-letter).
var oracleMonthNames = map[string]bool{
	"january": true, "february": true, "march": true, "april": true,
	"may": true, "june": true, "july": true, "august": true,
	"september": true, "october": true, "november": true, "december": true,
	"jan": true, "feb": true, "mar": true, "apr": true, "jun": true,
	"jul": true, "aug": true, "sep": true, "sept": true, "oct": true,
	"nov": true, "dec": true,
}

// oracleIsDate reports whether v looks like a calendar date. Recognized shapes:
//
//	2019-03-26   26/03/2019   03/26/19   26.03.2019
//	March 2019   26 March 2019   Mar-19   2019Q1   Q1 2019
func oracleIsDate(v string) bool {
	s := strings.TrimSpace(v)
	if s == "" {
		return false
	}
	if oracleIsQuarter(s) {
		return true
	}
	// Numeric dates with separators.
	for _, sep := range [...]byte{'-', '/', '.'} {
		if ok := oracleNumericDate(s, sep); ok {
			return true
		}
	}
	// Word dates: up to three tokens, one of which is a month name.
	fields := strings.FieldsFunc(s, func(r rune) bool {
		return r == ' ' || r == '-' || r == ',' || r == '/'
	})
	if len(fields) >= 1 && len(fields) <= 3 {
		hasMonth, othersNumeric := false, true
		for _, f := range fields {
			lf := strings.ToLower(f)
			if oracleMonthNames[lf] {
				hasMonth = true
				continue
			}
			if n, err := strconv.Atoi(f); err != nil || n < 1 || n > 3000 {
				othersNumeric = false
			}
		}
		if hasMonth && othersNumeric && len(fields) >= 2 {
			return true
		}
		if hasMonth && len(fields) == 1 {
			return false // bare month name is a string, not a date
		}
	}
	return false
}

// oracleIsQuarter recognizes 2019Q1, Q1 2019, Q1-2019 and similar.
func oracleIsQuarter(s string) bool {
	u := strings.ToUpper(strings.ReplaceAll(strings.ReplaceAll(s, " ", ""), "-", ""))
	if len(u) != 6 {
		return false
	}
	switch {
	case u[0] == 'Q' && u[1] >= '1' && u[1] <= '4' && oracleAllDigits(u[2:]):
		return true
	case oracleAllDigits(u[:4]) && u[4] == 'Q' && u[5] >= '1' && u[5] <= '4':
		return true
	}
	return false
}

// oracleNumericDate checks for D<sep>M<sep>Y style dates (any ordering of a
// 4-digit year with 1–2 digit day/month, or three short groups).
func oracleNumericDate(s string, sep byte) bool {
	parts := strings.Split(s, string(sep))
	if len(parts) != 3 {
		return false
	}
	var nums [3]int
	for i, p := range parts {
		if !oracleAllDigits(p) || len(p) > 4 {
			return false
		}
		n, _ := strconv.Atoi(p)
		nums[i] = n
	}
	fourDigit := -1
	for i, p := range parts {
		if len(p) == 4 {
			if fourDigit >= 0 {
				return false // two 4-digit groups
			}
			fourDigit = i
		}
	}
	inRange := func(n, lo, hi int) bool { return n >= lo && n <= hi }
	switch fourDigit {
	case 0: // Y-M-D
		return inRange(nums[0], 1000, 2999) && inRange(nums[1], 1, 12) && inRange(nums[2], 1, 31)
	case 2: // D-M-Y or M-D-Y
		y := nums[2]
		if !inRange(y, 1000, 2999) {
			return false
		}
		return (inRange(nums[0], 1, 31) && inRange(nums[1], 1, 12)) ||
			(inRange(nums[0], 1, 12) && inRange(nums[1], 1, 31))
	case 1:
		return false
	default: // all short groups, e.g. 03/26/19
		return (inRange(nums[0], 1, 31) && inRange(nums[1], 1, 12) ||
			inRange(nums[0], 1, 12) && inRange(nums[1], 1, 31)) &&
			inRange(nums[2], 0, 99)
	}
}
