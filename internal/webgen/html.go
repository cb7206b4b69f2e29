package webgen

import (
	"fmt"
	"strings"
)

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
	b.WriteString("<!DOCTYPE html>\n<html>\n<head>\n")
	fmt.Fprintf(&b, "  <title>%s</title>\n", escapeHTML(spec.title))
	for _, s := range spec.styles {
		fmt.Fprintf(&b, "  <link rel=\"stylesheet\" href=\"%s\">\n", s)
	}
	for _, s := range spec.scripts {
		fmt.Fprintf(&b, "  <script src=\"%s\"></script>\n", s)
	}
	b.WriteString("</head>\n<body>\n")
	for _, h := range spec.headings {
		fmt.Fprintf(&b, "  <h1>%s</h1>\n", escapeHTML(h))
	}
	for i, p := range spec.paragraphs {
		fmt.Fprintf(&b, "  <p>%s</p>\n", escapeHTML(p))
		// Interleave links between paragraphs.
		for j, l := range spec.links {
			if j%maxInt(len(spec.paragraphs), 1) == i {
				fmt.Fprintf(&b, "  <a href=\"%s\">%s</a>\n", l.href, escapeHTML(l.anchor))
			}
		}
	}
	if len(spec.paragraphs) == 0 {
		for _, l := range spec.links {
			fmt.Fprintf(&b, "  <a href=\"%s\">%s</a>\n", l.href, escapeHTML(l.anchor))
		}
	}
	for _, src := range spec.images {
		fmt.Fprintf(&b, "  <img src=\"%s\" alt=\"\">\n", src)
	}
	if spec.form != nil {
		fmt.Fprintf(&b, "  <form action=\"%s\" method=\"post\">\n", spec.form.action)
		for _, typ := range spec.form.inputs {
			fmt.Fprintf(&b, "    <input type=\"%s\">\n", typ)
		}
		b.WriteString("    <input type=\"submit\" value=\"OK\">\n  </form>\n")
	}
	for _, src := range spec.iframes {
		fmt.Fprintf(&b, "  <iframe src=\"%s\"></iframe>\n", src)
	}
	if spec.copyright != "" {
		fmt.Fprintf(&b, "  <p>%s</p>\n", escapeHTML(spec.copyright))
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

func escapeHTML(s string) string { return htmlEscaper.Replace(s) }

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
