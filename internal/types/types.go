// Package types infers the data type of individual cell values.
//
// The paper's feature sets (Tables 1 and 2) rely on a four-way data type
// distinction — int, float, string, and date — plus emptiness. This package
// provides that inference together with numeric value parsing that tolerates
// the formatting commonly found in statistical tables: thousands separators,
// leading currency symbols, percent signs, accounting-style parenthesized
// negatives, and footnote markers attached to numbers.
package types

import (
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Type is the inferred data type of a cell value.
type Type uint8

// The cell data types, ordered so that the integer values can be used
// directly as the ordinal feature values of Table 2 (DataType: 0..4 with
// empty, NeighborDataType: 0..5 with a -1 sentinel handled by the caller).
const (
	Empty Type = iota
	Int
	Float
	Date
	String

	// NumTypes is the number of distinct Type values.
	NumTypes = 5
)

var typeNames = [...]string{
	Empty:  "empty",
	Int:    "int",
	Float:  "float",
	Date:   "date",
	String: "string",
}

// String returns the lower-case type name.
func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return "type(?)"
}

// IsNumeric reports whether the type carries a numeric value.
func (t Type) IsNumeric() bool { return t == Int || t == Float }

// Infer returns the data type of a raw cell value.
func Infer(v string) Type {
	s := strings.TrimSpace(v)
	if s == "" {
		return Empty
	}
	if _, ok := ParseNumber(s); ok {
		if looksIntegral(s) {
			return Int
		}
		return Float
	}
	if IsDate(s) {
		return Date
	}
	return String
}

// looksIntegral reports whether a string that parsed as a number has no
// fractional part in its written form.
func looksIntegral(s string) bool {
	return !strings.ContainsAny(s, ".eE") || isYearLike(s)
}

func isYearLike(s string) bool {
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

// ParseNumber parses a cell value as a number, tolerating statistical-table
// formatting. It reports ok=false for values that are not numbers.
//
// Accepted embellishments: surrounding whitespace, thousands separators
// (1,234,567), a leading currency symbol ($ £ €), a trailing percent sign,
// accounting negatives ((123) == -123), an explicit sign, and a single
// trailing footnote marker (* or †) directly attached to the number.
//
// It does not allocate, except for a value out of float64 range or one
// with thousands separators longer than 32 bytes: the syntax is checked
// before strconv sees the value, since strconv allocates its errors.
func ParseNumber(v string) (float64, bool) {
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
	if strings.IndexByte(s, ',') >= 0 {
		if !validThousands(s) {
			return 0, false
		}
		var buf [32]byte
		if len(s) <= len(buf) {
			digits := buf[:0]
			for i := 0; i < len(s); i++ {
				if s[i] != ',' {
					digits = append(digits, s[i])
				}
			}
			return parseFloat(string(digits), neg)
		}
		s = strings.ReplaceAll(s, ",", "")
	}
	return parseFloat(s, neg)
}

// parseFloat is strconv.ParseFloat behind floatSyntax, negated when neg.
func parseFloat(s string, neg bool) (float64, bool) {
	if !floatSyntax(s) {
		return 0, false
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, false // out of range
	}
	if neg {
		f = -f
	}
	return f, true
}

// floatSyntax reports false for a value whose syntax strconv.ParseFloat
// rejects; true means strconv may accept it (it may still fail with a
// range error). It follows the standard library's grammar: an optional
// sign, then inf/infinity/nan in any case, or decimal or 0x-prefixed
// hexadecimal digits with at most one point and an optional exponent
// (required for hex). Underscore digit separators are rare in cells, so a
// value holding one is left to strconv.
func floatSyntax(s string) bool {
	if strings.IndexByte(s, '_') >= 0 {
		return true
	}
	if isSpecialFloat(s) {
		return true
	}
	i := 0
	if i < len(s) && (s[i] == '+' || s[i] == '-') {
		i++
	}
	hex := false
	expChar := byte('e')
	if i+2 < len(s) && s[i] == '0' && lower(s[i+1]) == 'x' {
		hex, expChar = true, 'p'
		i += 2
	}
	sawdot, sawdigits := false, false
digits:
	for ; i < len(s); i++ {
		switch c := s[i]; {
		case c == '.':
			if sawdot {
				break digits
			}
			sawdot = true
		case '0' <= c && c <= '9', hex && 'a' <= lower(c) && lower(c) <= 'f':
			sawdigits = true
		default:
			break digits
		}
	}
	if !sawdigits {
		return false
	}
	if i < len(s) && lower(s[i]) == expChar {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		if i >= len(s) || s[i] < '0' || s[i] > '9' {
			return false
		}
		for i < len(s) && '0' <= s[i] && s[i] <= '9' {
			i++
		}
	} else if hex {
		return false
	}
	return i == len(s)
}

// isSpecialFloat reports whether s is an infinity or NaN as strconv spells
// them: inf or infinity with an optional sign, or nan, in any case.
func isSpecialFloat(s string) bool {
	if equalFoldASCII(s, "nan") {
		return true
	}
	if s != "" && (s[0] == '+' || s[0] == '-') {
		s = s[1:]
	}
	return equalFoldASCII(s, "inf") || equalFoldASCII(s, "infinity")
}

// equalFoldASCII reports whether s is the lower-case ASCII word in any case.
func equalFoldASCII(s, word string) bool {
	if len(s) != len(word) {
		return false
	}
	for i := 0; i < len(s); i++ {
		if lower(s[i]) != word[i] {
			return false
		}
	}
	return true
}

// lower maps an ASCII upper-case letter to its lower case by setting bit
// 0x20; compared with a lower-case letter, it matches exactly both cases.
func lower(c byte) byte {
	return c | ('x' - 'X')
}

// validThousands checks that commas in s group the integer part 3-by-3.
func validThousands(s string) bool {
	body := s
	if i := strings.IndexAny(body, ".eE"); i >= 0 {
		if strings.IndexByte(body[i:], ',') >= 0 {
			return false
		}
		body = body[:i]
	}
	body = strings.TrimLeft(body, "+-")
	comma := strings.IndexByte(body, ',')
	if comma < 0 {
		return true
	}
	if lead := body[:comma]; len(lead) == 0 || len(lead) > 3 || !allDigits(lead) {
		return false
	}
	for rest := body[comma+1:]; ; {
		group, tail, more := strings.Cut(rest, ",")
		if len(group) != 3 || !allDigits(group) {
			return false
		}
		if !more {
			return true
		}
		rest = tail
	}
}

func allDigits(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// monthNames are the month words recognized by IsDate (full and 3-letter).
var monthNames = map[string]bool{
	"january": true, "february": true, "march": true, "april": true,
	"may": true, "june": true, "july": true, "august": true,
	"september": true, "october": true, "november": true, "december": true,
	"jan": true, "feb": true, "mar": true, "apr": true, "jun": true,
	"jul": true, "aug": true, "sep": true, "sept": true, "oct": true,
	"nov": true, "dec": true,
}

// maxMonthLen is the byte length of the longest month name.
const maxMonthLen = len("september")

// IsDate reports whether v looks like a calendar date. Recognized shapes:
//
//	2019-03-26   26/03/2019   03/26/19   26.03.2019
//	March 2019   26 March 2019   Mar-19   2019Q1   Q1 2019
func IsDate(v string) bool {
	s := strings.TrimSpace(v)
	if s == "" {
		return false
	}
	if isQuarter(s) {
		return true
	}
	// Numeric dates with separators.
	for _, sep := range [...]byte{'-', '/', '.'} {
		if ok := numericDate(s, sep); ok {
			return true
		}
	}
	// Word dates: two or three tokens, one of which is a month name and
	// the others numbers in 1..3000. A bare month name is a string.
	fields, hasMonth := 0, false
	for rest := s; ; {
		field, tail := nextDateField(rest)
		if field == "" {
			break
		}
		rest = tail
		if fields++; fields > 3 {
			return false
		}
		if isMonthName(field) {
			hasMonth = true
		} else if !smallPositive(field) {
			return false
		}
	}
	return hasMonth && fields >= 2
}

// nextDateField returns the first run of bytes in s free of the word-date
// separators (space, '-', ',', '/') and the text after it; field is empty
// when s holds no more fields.
func nextDateField(s string) (field, rest string) {
	i := 0
	for i < len(s) && isDateSep(s[i]) {
		i++
	}
	j := i
	for j < len(s) && !isDateSep(s[j]) {
		j++
	}
	return s[i:j], s[j:]
}

func isDateSep(c byte) bool { return c == ' ' || c == '-' || c == ',' || c == '/' }

// isMonthName reports whether strings.ToLower(f) is a month name, without
// allocating: every rune is folded with unicode.ToLower, as ToLower does,
// and one that folds outside ASCII rules the field out (month names are
// ASCII, but U+0130 'İ' folds to 'i').
func isMonthName(f string) bool {
	var buf [maxMonthLen]byte
	n := 0
	for _, r := range f {
		r = unicode.ToLower(r)
		if r >= utf8.RuneSelf || n == len(buf) {
			return false
		}
		buf[n] = byte(r)
		n++
	}
	return monthNames[string(buf[:n])]
}

// smallPositive reports whether strconv.Atoi(f) succeeds with a value in
// 1..3000: an optional sign and decimal digits only.
func smallPositive(f string) bool {
	neg := false
	if f != "" && (f[0] == '+' || f[0] == '-') {
		neg = f[0] == '-'
		f = f[1:]
	}
	if !allDigits(f) {
		return false
	}
	n := 0
	for i := 0; i < len(f); i++ {
		if n = n*10 + int(f[i]-'0'); n > 3000 {
			return false // leading zeros keep n small; anything else is out
		}
	}
	return !neg && n >= 1
}

// isQuarter recognizes 2019Q1, Q1 2019, Q1-2019 and similar: six bytes
// once spaces and dashes are dropped, upper-cased.
func isQuarter(s string) bool {
	var u [6]byte
	n := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == ' ' || c == '-' {
			continue
		}
		if n == len(u) {
			return false
		}
		if c == 'q' {
			c = 'Q' // no other rune upper-cases to 'Q' or a digit
		}
		u[n] = c
		n++
	}
	if n != len(u) {
		return false
	}
	switch {
	case u[0] == 'Q' && u[1] >= '1' && u[1] <= '4' && allDigits(string(u[2:])):
		return true
	case allDigits(string(u[:4])) && u[4] == 'Q' && u[5] >= '1' && u[5] <= '4':
		return true
	}
	return false
}

// numericDate checks for D<sep>M<sep>Y style dates (any ordering of a
// 4-digit year with 1–2 digit day/month, or three short groups).
func numericDate(s string, sep byte) bool {
	var nums, lens [3]int
	part := 0
	for start := 0; ; {
		end := strings.IndexByte(s[start:], sep)
		if end < 0 {
			end = len(s)
		} else {
			end += start
		}
		p := s[start:end]
		if part == len(nums) || !allDigits(p) || len(p) > 4 {
			return false
		}
		for i := 0; i < len(p); i++ {
			nums[part] = nums[part]*10 + int(p[i]-'0')
		}
		lens[part] = len(p)
		part++
		if end == len(s) {
			break
		}
		start = end + 1
	}
	if part != len(nums) {
		return false
	}
	fourDigit := -1
	for i, l := range lens {
		if l == 4 {
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

// RowTypes infers the type of every cell in a row.
func RowTypes(row []string) []Type {
	out := make([]Type, len(row))
	for i, v := range row {
		out[i] = Infer(v)
	}
	return out
}
