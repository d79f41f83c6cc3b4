package engine

import (
	"strings"
	"testing"

	"birds/internal/datalog"
	"birds/internal/value"
)

func TestParseSQLInsert(t *testing.T) {
	stmts, err := ParseSQL("INSERT INTO v VALUES (3, 'abc', 2.5, TRUE);")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 1 || stmts[0].Kind != StmtInsert || stmts[0].Target != "v" {
		t.Fatalf("stmts = %+v", stmts)
	}
	row := stmts[0].Row
	if len(row) != 4 || row[0].AsInt() != 3 || row[1].AsString() != "abc" ||
		row[2].AsFloat() != 2.5 || !row[3].AsBool() {
		t.Fatalf("row = %v", row)
	}
}

func TestParseSQLMultiRowInsert(t *testing.T) {
	stmts, err := ParseSQL("insert into t values (1), (2), (3);")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("want 3 statements, got %d", len(stmts))
	}
	for i, s := range stmts {
		if s.Row[0].AsInt() != int64(i+1) {
			t.Errorf("row %d = %v", i, s.Row)
		}
	}
}

func TestParseSQLDeleteAndUpdate(t *testing.T) {
	stmts, err := ParseSQL(`
DELETE FROM v WHERE a = 2 AND b > '1962-01-01';
UPDATE v SET a = 7, b = 'x' WHERE a <> -1;
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 2 {
		t.Fatalf("want 2 statements, got %d", len(stmts))
	}
	del := stmts[0]
	if del.Kind != StmtDelete || len(del.Where) != 2 {
		t.Fatalf("delete = %+v", del)
	}
	if del.Where[0].Op != datalog.OpEq || del.Where[1].Op != datalog.OpGt {
		t.Errorf("ops = %v %v", del.Where[0].Op, del.Where[1].Op)
	}
	up := stmts[1]
	if up.Kind != StmtUpdate || len(up.Set) != 2 || len(up.Where) != 1 {
		t.Fatalf("update = %+v", up)
	}
	if up.Where[0].Op != datalog.OpNe || up.Where[0].Val.AsInt() != -1 {
		t.Errorf("where = %+v", up.Where[0])
	}
}

func TestParseSQLTransactionMarkers(t *testing.T) {
	stmts, err := ParseSQL("BEGIN; INSERT INTO v VALUES (1); DELETE FROM v WHERE a = 1; END;")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 2 {
		t.Fatalf("markers should be skipped: %+v", stmts)
	}
}

func TestParseSQLQuotedStrings(t *testing.T) {
	stmts, err := ParseSQL("INSERT INTO v VALUES ('it''s');")
	if err != nil {
		t.Fatal(err)
	}
	if stmts[0].Row[0].AsString() != "it's" {
		t.Errorf("escaped quote wrong: %v", stmts[0].Row[0])
	}
}

func TestParseSQLOperatorsAndComparisons(t *testing.T) {
	stmts, err := ParseSQL("DELETE FROM v WHERE a <= 3 AND b >= 4 AND c != 5 AND d < 6;")
	if err != nil {
		t.Fatal(err)
	}
	w := stmts[0].Where
	want := []datalog.CmpOp{datalog.OpLe, datalog.OpGe, datalog.OpNe, datalog.OpLt}
	for i, op := range want {
		if w[i].Op != op {
			t.Errorf("cond %d op = %v, want %v", i, w[i].Op, op)
		}
	}
}

func TestParseSQLErrors(t *testing.T) {
	bad := []string{
		"INSERT v VALUES (1);",           // missing INTO
		"INSERT INTO v VALUES 1;",        // missing parens
		"INSERT INTO v VALUES (1;",       // unbalanced
		"DELETE v;",                      // missing FROM
		"UPDATE v a = 1;",                // missing SET
		"SELECT * FROM v;",               // unsupported statement
		"DELETE FROM v WHERE a ~ 2;",     // bad operator
		"INSERT INTO v VALUES ('abc);",   // unterminated string
		"DELETE FROM v WHERE a = 1 !",    // stray bang
		"INSERT INTO v VALUES (1) junk;", // trailing garbage
	}
	for _, src := range bad {
		if _, err := ParseSQL(src); err == nil {
			t.Errorf("ParseSQL(%q) should fail", src)
		}
	}
}

func TestExecSQLEndToEnd(t *testing.T) {
	db := setupUnion(t, true)
	if err := db.ExecSQL("BEGIN; INSERT INTO v VALUES (3); DELETE FROM v WHERE a = 2; END;"); err != nil {
		t.Fatal(err)
	}
	r1, _ := db.Get("r1")
	r2, _ := db.Get("r2")
	if !r1.Contains(value.Tuple{value.Int(3)}) {
		t.Errorf("r1 = %v", r1)
	}
	if r2.Contains(value.Tuple{value.Int(2)}) {
		t.Errorf("r2 = %v", r2)
	}
	// Parse errors surface.
	if err := db.ExecSQL("DROP TABLE r1;"); err == nil {
		t.Error("unsupported SQL should fail")
	}
	if !strings.Contains(db.ExecSQL("SELECT 1;").Error(), "expected INSERT") {
		t.Error("error message should mention supported statements")
	}
}

func TestExecSQLUpdateThroughView(t *testing.T) {
	db := setupUnion(t, false)
	if err := db.ExecSQL("UPDATE v SET a = 9 WHERE a = 4;"); err != nil {
		t.Fatal(err)
	}
	v, _ := db.Get("v")
	if v.Contains(value.Tuple{value.Int(4)}) || !v.Contains(value.Tuple{value.Int(9)}) {
		t.Errorf("v = %v", v)
	}
}
