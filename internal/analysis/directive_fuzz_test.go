package analysis

import (
	"strings"
	"testing"
)

// TestParseDirectiveTable walks every branch of the parser: both verbs
// well-formed, each malformed shape with its exact diagnostic, and
// non-directive comments that must be skipped entirely.
func TestParseDirectiveTable(t *testing.T) {
	cases := []struct {
		text    string
		ok      bool
		kind    directiveKind
		rule    string
		reason  string
		problem string
	}{
		// Well-formed.
		{
			text: "//molvet:ignore determinism seeded RNG is part of the spec",
			ok:   true, kind: directiveIgnore, rule: "determinism",
			reason: "seeded RNG is part of the spec",
		},
		{
			text: "//molvet:ignore lock-order the inner lock is released before the outer",
			ok:   true, kind: directiveIgnore, rule: "lock-order",
			reason: "the inner lock is released before the outer",
		},
		{
			text: "//molvet:transient rebuilt from the restored clock",
			ok:   true, kind: directiveTransient,
			reason: "rebuilt from the restored clock",
		},
		// Tabs separate the verb just like spaces.
		{
			text: "//molvet:transient\trebuilt lazily",
			ok:   true, kind: directiveTransient, reason: "rebuilt lazily",
		},
		// Malformed: missing pieces.
		{
			text: "//molvet:ignore",
			ok:   true, kind: directiveIgnore,
			problem: "molvet:ignore needs a rule name and a reason",
		},
		{
			text: "//molvet:ignore   ",
			ok:   true, kind: directiveIgnore,
			problem: "molvet:ignore needs a rule name and a reason",
		},
		{
			text: "//molvet:ignore determinism",
			ok:   true, kind: directiveIgnore, rule: "determinism",
			problem: "molvet:ignore determinism has no reason; explain the exception",
		},
		{
			text: "//molvet:ignore no-such-rule because reasons",
			ok:   true, kind: directiveIgnore, rule: "no-such-rule",
			problem: "molvet:ignore names unknown rule no-such-rule",
		},
		{
			text: "//molvet:transient",
			ok:   true, kind: directiveTransient,
			problem: "molvet:transient has no reason; explain why the field is not checkpointed",
		},
		{
			text: "//molvet:transient \t ",
			ok:   true, kind: directiveTransient,
			problem: "molvet:transient has no reason; explain why the field is not checkpointed",
		},
		// Malformed: bad verbs.
		{
			text:    "//molvet:",
			ok:      true,
			problem: "molvet: directive has no verb (want ignore or transient)",
		},
		{
			text:    "//molvet: ignore determinism leading space",
			ok:      true,
			problem: "molvet: directive has no verb (want ignore or transient)",
		},
		{
			text:    "//molvet:ignored determinism typo in the verb",
			ok:      true,
			problem: "molvet:ignored is not a directive (want ignore or transient)",
		},
		{
			text:    "//molvet:suppress determinism wrong verb",
			ok:      true,
			problem: "molvet:suppress is not a directive (want ignore or transient)",
		},
		// Not directives at all.
		{text: "// molvet:ignore determinism spaced-out prefix"},
		{text: "//nolint:all"},
		{text: "// plain comment"},
		{text: ""},
	}
	for _, c := range cases {
		d, ok, problem := parseDirective(c.text)
		if ok != c.ok {
			t.Errorf("parseDirective(%q) ok = %v, want %v", c.text, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if problem != c.problem {
			t.Errorf("parseDirective(%q) problem = %q, want %q", c.text, problem, c.problem)
		}
		if d.kind != c.kind {
			t.Errorf("parseDirective(%q) kind = %v, want %v", c.text, d.kind, c.kind)
		}
		if d.rule != c.rule {
			t.Errorf("parseDirective(%q) rule = %q, want %q", c.text, d.rule, c.rule)
		}
		if problem == "" && d.reason != c.reason {
			t.Errorf("parseDirective(%q) reason = %q, want %q", c.text, d.reason, c.reason)
		}
	}
}

// FuzzParseDirective holds the parser to its contract on arbitrary
// input: never panic, and keep the invariants that make directives()
// trustworthy — a well-formed result excludes a problem, a recognized
// ignore either names a registered rule or reports one, and reasons
// never come back empty for accepted directives.
func FuzzParseDirective(f *testing.F) {
	f.Add("//molvet:ignore determinism seeded RNG is part of the spec")
	f.Add("//molvet:transient rebuilt from the restored clock")
	f.Add("//molvet:ignore")
	f.Add("//molvet:transient")
	f.Add("//molvet:")
	f.Add("//molvet:bogus verb")
	f.Add("//molvet:ignore no-such-rule because")
	f.Add("//molvet:transient\t\ttabs")
	f.Add("// not a directive")
	f.Add("")
	f.Fuzz(func(t *testing.T, text string) {
		d, ok, problem := parseDirective(text)
		if !ok {
			if problem != "" {
				t.Fatalf("unrecognized comment %q produced problem %q", text, problem)
			}
			if strings.HasPrefix(text, directivePrefix) {
				t.Fatalf("directive-prefixed comment %q was not recognized", text)
			}
			return
		}
		if !strings.HasPrefix(text, directivePrefix) {
			t.Fatalf("non-prefixed comment %q was recognized as a directive", text)
		}
		if problem != "" {
			// Malformed: the message must carry the molvet marker so it is
			// findable in diagnostics.
			if !strings.HasPrefix(problem, "molvet:") {
				t.Fatalf("problem %q lacks the molvet prefix", problem)
			}
			return
		}
		// Accepted: the invariants each consumer relies on.
		switch d.kind {
		case directiveIgnore:
			if _, known := rules[d.rule]; !known {
				t.Fatalf("accepted ignore names unregistered rule %q", d.rule)
			}
			if d.reason == "" {
				t.Fatal("accepted ignore has an empty reason")
			}
		case directiveTransient:
			if d.reason == "" {
				t.Fatal("accepted transient has an empty reason")
			}
		default:
			t.Fatalf("accepted directive has unknown kind %d", d.kind)
		}
	})
}
