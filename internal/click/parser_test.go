package click

import (
	"reflect"
	"testing"
)

func TestParseDeclarationAndChain(t *testing.T) {
	g, err := ParseConfig(`
// a comment
fw :: IPFilter(allow all);
FromDevice -> fw -> ToDevice;
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Decls) != 3 {
		t.Fatalf("decls = %+v, want 3", g.Decls)
	}
	if g.Decls[0].Name != "fw" || g.Decls[0].Class != "IPFilter" || g.Decls[0].Config != "allow all" {
		t.Errorf("decl[0] = %+v", g.Decls[0])
	}
	if len(g.Conns) != 2 {
		t.Fatalf("conns = %+v, want 2", g.Conns)
	}
	if g.Conns[0].To != "fw" || g.Conns[1].From != "fw" {
		t.Errorf("conns = %+v", g.Conns)
	}
}

func TestParseInlineDeclaration(t *testing.T) {
	g, err := ParseConfig(`FromDevice -> cnt :: Counter -> ToDevice;`)
	if err != nil {
		t.Fatal(err)
	}
	var classes []string
	for _, d := range g.Decls {
		classes = append(classes, d.Class)
	}
	want := []string{"FromDevice", "Counter", "ToDevice"}
	if !reflect.DeepEqual(classes, want) {
		t.Errorf("classes = %v, want %v", classes, want)
	}
	if g.Decls[1].Name != "cnt" {
		t.Errorf("inline decl name = %q", g.Decls[1].Name)
	}
}

func TestParsePortBrackets(t *testing.T) {
	g, err := ParseConfig(`
rr :: RoundRobinSwitch;
FromDevice -> rr;
rr[0] -> ToDevice;
rr[1] -> [0]Discard;
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Conns) != 3 {
		t.Fatalf("conns = %+v", g.Conns)
	}
	if g.Conns[1].FromPort != 0 || g.Conns[2].FromPort != 1 {
		t.Errorf("output ports: %+v", g.Conns)
	}
	if g.Conns[2].ToPort != 0 {
		t.Errorf("input port: %+v", g.Conns[2])
	}
}

func TestParseAnonymousWithConfig(t *testing.T) {
	g, err := ParseConfig(`FromDevice -> IPFilter(allow all) -> ToDevice;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Decls) != 3 {
		t.Fatalf("decls = %+v", g.Decls)
	}
	if g.Decls[1].Class != "IPFilter" || g.Decls[1].Config != "allow all" {
		t.Errorf("anon decl = %+v", g.Decls[1])
	}
	// Anonymous names are generated and unique.
	if g.Decls[1].Name == "IPFilter" {
		t.Error("anonymous element not renamed")
	}
}

func TestParseNestedParensAndQuotes(t *testing.T) {
	g, err := ParseConfig(`f :: IPFilter(drop src host 1.2.3.4, allow all); x :: SetTOS(eb);`)
	if err != nil {
		t.Fatal(err)
	}
	if g.Decls[0].Config != "drop src host 1.2.3.4, allow all" {
		t.Errorf("config = %q", g.Decls[0].Config)
	}
}

func TestParseBlockComment(t *testing.T) {
	g, err := ParseConfig(`/* block
comment */ FromDevice -> ToDevice;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Decls) != 2 {
		t.Errorf("decls = %+v", g.Decls)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"unterminated paren":   `f :: IPFilter(allow all`,
		"unterminated comment": `/* nope`,
		"bad token":            `f :: $$$;`,
		"double declaration":   `f :: Counter; f :: Counter;`,
		"missing class":        `f :: ;`,
		"dangling arrow":       `FromDevice -> ;`,
		"bad port":             `FromDevice -> [x]ToDevice;`,
	}
	for name, cfg := range cases {
		if _, err := ParseConfig(cfg); err == nil {
			t.Errorf("%s: no error for %q", name, cfg)
		}
	}
}

func TestSplitArgs(t *testing.T) {
	tests := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"a", []string{"a"}},
		{"a, b,  c ", []string{"a", "b", "c"}},
		{`a "x, y", b`, []string{`a "x, y"`, "b"}},
		{"f(a, b), c", []string{"f(a, b)", "c"}},
		{"a,,b", []string{"a", "b"}},
	}
	for _, tt := range tests {
		if got := SplitArgs(tt.in); !reflect.DeepEqual(got, tt.want) {
			t.Errorf("SplitArgs(%q) = %#v, want %#v", tt.in, got, tt.want)
		}
	}
}

func TestParseMultilineRealConfig(t *testing.T) {
	for _, uc := range AllUseCases {
		if _, err := ParseConfig(stockConfig(t, uc)); err != nil {
			t.Errorf("StockPipeline(%v) does not parse: %v", uc, err)
		}
		cfg, err := ServerConfig(uc)
		if err != nil {
			t.Fatalf("ServerConfig(%v): %v", uc, err)
		}
		if _, err := ParseConfig(cfg); err != nil {
			t.Errorf("ServerConfig(%v) does not parse: %v", uc, err)
		}
	}
}
