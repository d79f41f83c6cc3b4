package engine

import (
	"strings"
	"testing"

	"birds/internal/value"
)

func TestLoadCSV(t *testing.T) {
	db := NewDB()
	if err := db.CreateTable(mustDecl(t, "items(iid:int, iname:string, price:float, instock:bool).")); err != nil {
		t.Fatal(err)
	}
	csvData := `iid,iname,price,instock
1,hammer,9.5,true
2,kite,3,false
`
	n, err := db.LoadCSV("items", strings.NewReader(csvData), true)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("loaded %d rows, want 2", n)
	}
	rel, _ := db.Get("items")
	want := value.Tuple{value.Int(1), value.Str("hammer"), value.Float(9.5), value.Bool(true)}
	if !rel.Contains(want) {
		t.Errorf("items = %v", rel)
	}
}

func TestLoadCSVNoHeader(t *testing.T) {
	db := NewDB()
	if err := db.CreateTable(mustDecl(t, "r(a:int).")); err != nil {
		t.Fatal(err)
	}
	n, err := db.LoadCSV("r", strings.NewReader("1\n2\n3\n"), false)
	if err != nil || n != 3 {
		t.Fatalf("n=%d err=%v", n, err)
	}
}

func TestLoadCSVErrors(t *testing.T) {
	db := NewDB()
	if err := db.CreateTable(mustDecl(t, "r(a:int, b:bool).")); err != nil {
		t.Fatal(err)
	}
	cases := []string{
		"notanumber,true\n", // bad int
		"1,notabool\n",      // bad bool
		"1\n",               // wrong field count
	}
	for _, c := range cases {
		if _, err := db.LoadCSV("r", strings.NewReader(c), false); err == nil {
			t.Errorf("LoadCSV(%q) should fail", c)
		}
	}
	if _, err := db.LoadCSV("nope", strings.NewReader("1\n"), false); err == nil {
		t.Error("unknown table should fail")
	}
}

func TestDumpCSVRoundTrip(t *testing.T) {
	db := setupUnion(t, false)
	var sb strings.Builder
	if err := db.DumpCSV("v", &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "a\n") {
		t.Errorf("missing header: %q", out)
	}
	for _, want := range []string{"1", "2", "4"} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("dump missing %s:\n%s", want, out)
		}
	}
	// Round trip into a fresh table.
	db2 := NewDB()
	if err := db2.CreateTable(mustDecl(t, "t(a:int).")); err != nil {
		t.Fatal(err)
	}
	n, err := db2.LoadCSV("t", strings.NewReader(out), true)
	if err != nil || n != 3 {
		t.Fatalf("round trip: n=%d err=%v", n, err)
	}
}
