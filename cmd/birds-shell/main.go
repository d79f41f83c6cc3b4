// Command birds-shell is an interactive session against the in-memory
// engine: declare base tables, install updatable views from putback
// programs, and update through them with SQL DML.
//
//	$ go run ./cmd/birds-shell
//	birds> source r1(a:int).
//	birds> source r2(a:int).
//	birds> \beginview
//	  ... paste a putback program, then \endview
//	birds> INSERT INTO v VALUES (3);
//	birds> \show r1
//
// Commands: \tables, \show REL, \sql VIEW, \explain VIEW, \csv TABLE FILE,
// \view FILE [inc], \beginview/\endview [inc], \flush, \checkpoint, \help,
// \quit.
//
// With -batch-size and/or -flush-interval, table DML goes through the
// group-commit write pipeline: transactions stage until the batch flushes
// (size or interval trigger, \flush, a view-targeted statement, \quit or
// EOF) and then propagate into the views as one maintenance pass.
//
// With -durable DIR the session writes a crash-consistent write-ahead log:
// a fresh directory starts empty, a directory holding durable state from a
// previous session (clean exit or crash) is recovered — checkpoint load
// plus WAL replay — before the prompt appears. -fsync picks the sync mode
// (off, commit, flush) and \checkpoint forces a snapshot checkpoint.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"birds"
	"birds/internal/engine"
	"birds/internal/sqlgen"
)

func main() {
	batchSize := flag.Int("batch-size", 0,
		"group-commit batch size: flush after this many transactions (0 disables batching unless -flush-interval is set; with batching on, 0 means the default size)")
	flushInterval := flag.Duration("flush-interval", 0,
		"flush a non-empty batch this long after its first admission (0 disables the interval trigger)")
	durable := flag.String("durable", "",
		"write-ahead-log directory: log every committed write for crash recovery, recovering first if the directory already holds durable state")
	fsync := flag.String("fsync", "commit",
		"WAL fsync mode with -durable: off, commit (every record), or flush (group-commit flush records only)")
	flag.Parse()

	var db *birds.DB
	if *durable != "" {
		syncMode, err := birds.ParseSyncMode(*fsync)
		if err != nil {
			fmt.Fprintln(os.Stderr, "birds-shell:", err)
			os.Exit(2)
		}
		if birds.HasDurableState(*durable) {
			rec, stats, err := birds.Recover(*durable)
			if err != nil {
				fmt.Fprintln(os.Stderr, "birds-shell: recover:", err)
				os.Exit(1)
			}
			db = rec
			fmt.Printf("recovered %s: checkpoint lsn=%d, %d record(s) replayed", *durable, stats.CheckpointLSN, stats.Replayed)
			if stats.TornTail {
				fmt.Print(", torn tail skipped")
			}
			fmt.Println()
		} else {
			db = birds.NewDB()
			if err := db.EnableDurability(birds.DurabilityOptions{Dir: *durable, Sync: syncMode}); err != nil {
				fmt.Fprintln(os.Stderr, "birds-shell:", err)
				os.Exit(1)
			}
			fmt.Printf("durability enabled (dir=%s, fsync=%s)\n", *durable, syncMode)
		}
	} else {
		db = birds.NewDB()
	}
	var bt *birds.Batcher
	if *batchSize != 0 || *flushInterval > 0 {
		bt = db.Batch(birds.BatchOptions{MaxTxns: *batchSize, FlushInterval: *flushInterval})
		fmt.Printf("batching enabled (batch-size=%d, flush-interval=%s); \\flush forces a flush\n",
			*batchSize, *flushInterval)
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	fmt.Println("birds-shell — type \\help for commands")

	var viewBuf *strings.Builder
	var viewInc bool
	prompt := func() {
		if viewBuf != nil {
			fmt.Print("  ...> ")
		} else {
			fmt.Print("birds> ")
		}
	}
	for prompt(); sc.Scan(); prompt() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if viewBuf != nil {
			if strings.EqualFold(line, `\endview`) {
				src := viewBuf.String()
				viewBuf = nil
				if _, err := db.CreateView(src, birds.ViewOptions{Incremental: viewInc}); err != nil {
					fmt.Println("error:", err)
				} else {
					fmt.Println("view created (strategy validated)")
				}
				continue
			}
			viewBuf.WriteString(line)
			viewBuf.WriteByte('\n')
			continue
		}
		if err := execLine(db, bt, line, &viewBuf, &viewInc); err != nil {
			fmt.Println("error:", err)
		}
	}
	command(db, bt, `\quit`, &viewBuf, &viewInc) // EOF ends the session like \quit
}

func execLine(db *birds.DB, bt *birds.Batcher, line string, viewBuf **strings.Builder, viewInc *bool) error {
	switch {
	case strings.HasPrefix(line, `\`):
		return command(db, bt, line, viewBuf, viewInc)
	case strings.HasPrefix(strings.ToLower(line), "source "):
		prog, err := birds.Parse(line)
		if err != nil {
			return err
		}
		for _, d := range prog.Sources {
			if err := db.CreateTable(d); err != nil {
				return err
			}
			fmt.Printf("table %s created\n", d)
		}
		return nil
	case bt != nil:
		stmts, err := engine.ParseSQL(line)
		if err != nil {
			return err
		}
		return bt.Exec(stmts...)
	default:
		return db.ExecSQL(line)
	}
}

func command(db *birds.DB, bt *birds.Batcher, line string, viewBuf **strings.Builder, viewInc *bool) error {
	fields := strings.Fields(line)
	switch strings.ToLower(fields[0]) {
	case `\help`:
		fmt.Println(`statements:
  source NAME(col:type, ...).      create a base table
  INSERT INTO rel VALUES (...);    DML through tables and views
  DELETE FROM rel WHERE col = v;
  UPDATE rel SET col = v WHERE ...;
commands:
  \beginview [inc]   start entering a putback program (\endview to finish)
  \view FILE [inc]   create a view from a .dtl file
  \csv TABLE FILE    bulk-load a table from CSV (header row expected)
  \show REL          print a relation
  \tables            list relations
  \sql VIEW          print the compiled SQL program
  \explain VIEW      print the plans a write to VIEW runs (∂put or putdelta)
  \flush             flush the pending group-commit batch (see -batch-size)
  \checkpoint        write a snapshot checkpoint and truncate the WAL (see -durable)
  \quit`)
		return nil
	case `\checkpoint`:
		if !db.Durable() {
			fmt.Println("durability is not enabled (start the shell with -durable DIR)")
			return nil
		}
		if err := db.Checkpoint(); err != nil {
			return err
		}
		fmt.Printf("checkpoint written (lsn=%d)\n", db.LastLSN())
		return nil
	case `\flush`:
		if bt == nil {
			fmt.Println("batching is not enabled (start the shell with -batch-size or -flush-interval)")
			return nil
		}
		if err := bt.Flush(); err != nil {
			return err
		}
		fmt.Println("batch flushed")
		return nil
	case `\quit`, `\q`:
		// DB.Close does not flush a batch handle: close the session's first.
		if bt != nil {
			if err := bt.Close(); err != nil {
				fmt.Println("error:", err)
			}
		}
		db.Close()
		os.Exit(0)
	case `\beginview`:
		*viewInc = len(fields) > 1 && fields[1] == "inc"
		*viewBuf = &strings.Builder{}
		fmt.Println("enter the putback program; finish with \\endview")
		return nil
	case `\view`:
		if len(fields) < 2 {
			return fmt.Errorf("usage: \\view FILE [inc]")
		}
		data, err := os.ReadFile(fields[1])
		if err != nil {
			return err
		}
		inc := len(fields) > 2 && fields[2] == "inc"
		if _, err := db.CreateView(string(data), birds.ViewOptions{Incremental: inc}); err != nil {
			return err
		}
		fmt.Println("view created (strategy validated)")
		return nil
	case `\csv`:
		if len(fields) != 3 {
			return fmt.Errorf("usage: \\csv TABLE FILE")
		}
		f, err := os.Open(fields[2])
		if err != nil {
			return err
		}
		defer f.Close()
		n, err := db.LoadCSV(fields[1], f, true)
		if err != nil {
			return err
		}
		fmt.Printf("%d rows loaded\n", n)
		return nil
	case `\show`:
		if len(fields) != 2 {
			return fmt.Errorf("usage: \\show REL")
		}
		rel, err := db.Get(fields[1])
		if err != nil {
			return err
		}
		fmt.Printf("%s (%d tuples) = %s\n", fields[1], rel.Len(), rel)
		return nil
	case `\sql`:
		if len(fields) != 2 {
			return fmt.Errorf("usage: \\sql VIEW")
		}
		v := db.View(fields[1])
		if v == nil {
			return fmt.Errorf("unknown view %q", fields[1])
		}
		sqlText, err := sqlgen.New(v.Strategy.Prog).Compile(v.Get)
		if err != nil {
			return err
		}
		fmt.Println(sqlText)
		return nil
	case `\explain`:
		if len(fields) != 2 {
			return fmt.Errorf("usage: \\explain VIEW")
		}
		plan, err := db.Explain(fields[1])
		if err != nil {
			return err
		}
		fmt.Print(plan)
		return nil
	case `\tables`:
		infos, err := db.Relations()
		if err != nil {
			return err
		}
		for _, info := range infos {
			mode := ""
			if info.Kind == "view" {
				mode = " (original strategy)"
				if info.Incremental {
					mode = " (incremental strategy)"
				}
			}
			fmt.Printf("  %-6s %s%s\n", info.Kind, info.Decl, mode)
		}
		return nil
	default:
		return fmt.Errorf("unknown command %s (try \\help)", fields[0])
	}
	return nil
}
