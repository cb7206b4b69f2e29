package webgen

import "strings"

// hyperlink is one <a> element of a generated page.
type hyperlink struct {
	href   string
	anchor string
}

// formSpec describes a form on a generated page.
type formSpec struct {
	action string
	inputs []string // input types, e.g. "text", "password"
}

// pageSpec is the declarative description renderHTML turns into markup.
type pageSpec struct {
	title      string
	headings   []string
	paragraphs []string
	links      []hyperlink
	scripts    []string // script srcs
	styles     []string // stylesheet hrefs
	images     []string // img srcs
	iframes    []string // iframe srcs
	form       *formSpec
	copyright  string
	// logoText is text visible only in imagery (a logo); it reaches the
	// screenshot layer but not the HTML text.
	logoText string
}

// renderHTML produces the page markup for spec.
func renderHTML(spec pageSpec) string {
	var b strings.Builder
	b.Grow(1024)
	// element writes open, s (escaped when text is true) and close.
	element := func(open, s, close string, text bool) {
		b.WriteString(open)
		if text {
			htmlEscaper.WriteString(&b, s)
		} else {
			b.WriteString(s)
		}
		b.WriteString(close)
	}
	link := func(l hyperlink) {
		element("  <a href=\"", l.href, "\">", false)
		element("", l.anchor, "</a>\n", true)
	}
	b.WriteString("<!DOCTYPE html>\n<html>\n<head>\n")
	element("  <title>", spec.title, "</title>\n", true)
	for _, s := range spec.styles {
		element("  <link rel=\"stylesheet\" href=\"", s, "\">\n", false)
	}
	for _, s := range spec.scripts {
		element("  <script src=\"", s, "\"></script>\n", false)
	}
	b.WriteString("</head>\n<body>\n")
	for _, h := range spec.headings {
		element("  <h1>", h, "</h1>\n", true)
	}
	for i, p := range spec.paragraphs {
		element("  <p>", p, "</p>\n", true)
		// Interleave links between paragraphs.
		for j, l := range spec.links {
			if j%max(len(spec.paragraphs), 1) == i {
				link(l)
			}
		}
	}
	if len(spec.paragraphs) == 0 {
		for _, l := range spec.links {
			link(l)
		}
	}
	for _, src := range spec.images {
		element("  <img src=\"", src, "\" alt=\"\">\n", false)
	}
	if spec.form != nil {
		element("  <form action=\"", spec.form.action, "\" method=\"post\">\n", false)
		for _, typ := range spec.form.inputs {
			element("    <input type=\"", typ, "\">\n", false)
		}
		b.WriteString("    <input type=\"submit\" value=\"OK\">\n  </form>\n")
	}
	for _, src := range spec.iframes {
		element("  <iframe src=\"", src, "\"></iframe>\n", false)
	}
	if spec.copyright != "" {
		element("  <p>", spec.copyright, "</p>\n", true)
	}
	b.WriteString("</body>\n</html>\n")
	return b.String()
}

// screenshotText returns what a rendered screenshot of the page shows:
// headings, paragraphs, link anchors, form labels — plus logo imagery
// text, which appears only in pixels.
func (spec pageSpec) screenshotText() []string {
	var out []string
	if spec.logoText != "" {
		out = append(out, spec.logoText)
	}
	out = append(out, spec.title)
	out = append(out, spec.headings...)
	out = append(out, spec.paragraphs...)
	for _, l := range spec.links {
		out = append(out, l.anchor)
	}
	if spec.copyright != "" {
		out = append(out, spec.copyright)
	}
	return out
}

var htmlEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
