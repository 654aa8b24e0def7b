package serve

// appendIndent appends src, the compact encoding/json output of one value
// (newline-terminated or not), indented by two spaces per level: the
// bytes json.Indent(dst, src, "", "  ") appends. Compact output holds no
// whitespace outside strings, so only { [ , : ] } outside strings need
// handling and every other byte is copied; strings are copied whole.
func appendIndent(dst, src []byte) []byte {
	depth := 0
	opened := false // a { or [ was just copied
	for i := 0; i < len(src); i++ {
		c := src[i]
		if opened {
			// Indent lazily, so an empty object or array stays {} or [].
			opened = false
			if c == '}' || c == ']' {
				dst = append(dst, c)
				continue
			}
			depth++
			dst = appendNewline(dst, depth)
		}
		switch c {
		case '"':
			j := i + 1
			for j < len(src) && src[j] != '"' {
				if src[j] == '\\' {
					j++
				}
				j++
			}
			if j >= len(src) {
				return append(dst, src[i:]...)
			}
			dst = append(dst, src[i:j+1]...)
			i = j
		case '{', '[':
			dst = append(dst, c)
			opened = true
		case ',':
			dst = appendNewline(append(dst, c), depth)
		case ':':
			dst = append(dst, c, ' ')
		case '}', ']':
			depth--
			dst = append(appendNewline(dst, depth), c)
		default:
			// A number or a literal: copy it whole.
			j := i + 1
			for j < len(src) && !structural[src[j]] {
				j++
			}
			dst = append(dst, src[i:j]...)
			i = j - 1
		}
	}
	return dst
}

// structural marks the bytes appendIndent handles outside strings.
var structural = [256]bool{'"': true, '{': true, '[': true, ',': true, ':': true, '}': true, ']': true}

// spaces is the indentation appendNewline copies from.
const spaces = "                                                                "

// appendNewline appends a newline and depth levels of two-space indent.
func appendNewline(dst []byte, depth int) []byte {
	dst = append(dst, '\n')
	for n := 2 * depth; n > 0; n -= len(spaces) {
		dst = append(dst, spaces[:min(n, len(spaces))]...)
	}
	return dst
}
