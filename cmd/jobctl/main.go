// Command jobctl is the client for the schedd gang-scheduling daemon: it
// submits jobs, watches them, fetches their output, cancels them, and
// drives the chaos/admin endpoints.
//
// Usage:
//
//	jobctl [-addr host:port] <verb> [args]
//
//	jobctl submit -tenant alice -program integration -width 4 -arg n=100000
//	jobctl submit -tenant bob -program forestfire-recover -width 4 \
//	       -recover -kill-rank 1 -arg rows=40 -arg cols=40 -wait
//	jobctl status j-000001
//	jobctl wait j-000001
//	jobctl logs j-000001
//	jobctl cancel j-000001 -reason "wrong args"
//	jobctl list -tenant alice -state running
//	jobctl stats
//	jobctl nodes
//	jobctl node kill 2        # chaos: node 2 dies now
//	jobctl node silence 2     # chaos: node 2 stops heartbeating
//	jobctl node drain 2 | revive 2
//	jobctl programs
//
// An exemplar's -arg k=v are the key=value args mpirun takes; a bad one is a
// bad spec (exit 2). `jobctl programs` also lists each -recover form.
//
// The daemon address defaults to 127.0.0.1:8080 and may also come from
// the SCHEDD_ADDR environment variable.
//
// Exit codes follow the mpirun contract (internal/verdict), so scripts
// and autograders read the same verdicts from a scheduled job as from a
// direct launch:
//
//	0  success (submit accepted; watched job succeeded)
//	1  launcher error (daemon unreachable, server error) — and a watched
//	   job that was canceled
//	2  usage error (bad flags, bad spec: the daemon's 400s)
//	3  a watched job was quarantined: its runs failed past the budget
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/sched"
	"repro/internal/verdict"
)

func main() {
	addr := flag.String("addr", defaultAddr(), "schedd address (host:port)")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() == 0 {
		usage()
		os.Exit(verdict.ExitUsage)
	}
	c := &client{base: "http://" + *addr}
	verb, args := flag.Arg(0), flag.Args()[1:]
	var err error
	switch verb {
	case "submit":
		err = cmdSubmit(c, args)
	case "status":
		err = cmdStatus(c, args)
	case "wait":
		err = cmdWait(c, args)
	case "logs":
		err = cmdLogs(c, args)
	case "cancel":
		err = cmdCancel(c, args)
	case "list":
		err = cmdList(c, args)
	case "stats":
		err = cmdStats(c)
	case "nodes":
		err = cmdNodes(c)
	case "node":
		err = cmdNode(c, args)
	case "programs":
		err = cmdPrograms(c)
	default:
		fmt.Fprintf(os.Stderr, "jobctl: unknown verb %q\n", verb)
		usage()
		os.Exit(verdict.ExitUsage)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "jobctl:", err)
		os.Exit(exitFor(err))
	}
}

func defaultAddr() string {
	if a := os.Getenv("SCHEDD_ADDR"); a != "" {
		return a
	}
	return "127.0.0.1:8080"
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: jobctl [-addr host:port] <verb> [args]

verbs:
  submit   -tenant T -program P -width N [options]   submit a job
  status   <id>                                      one job's status
  wait     <id> [-timeout D]                         poll until terminal
  logs     <id>                                      captured output
  cancel   <id> [-reason R]                          cancel a job
  list     [-tenant T] [-state S]                    list jobs
  stats                                              scheduler counters
  nodes                                              cluster view
  node     <kill|silence|drain|revive> <id>          chaos / admin
  programs                                           registered programs
`)
	flag.PrintDefaults()
}

// exitFor maps client errors onto the shared verdict exit codes.
func exitFor(err error) int {
	var je *jobExitError
	if ok := asJobExit(err, &je); ok {
		return je.code
	}
	var he *httpError
	if ok := asHTTP(err, &he); ok {
		if he.status == http.StatusBadRequest {
			return verdict.ExitUsage
		}
		return verdict.ExitLauncher
	}
	if verdict.IsUsage(err) {
		return verdict.ExitUsage
	}
	return verdict.ExitLauncher
}

// jobExitError carries the verdict of a watched job that ended badly.
type jobExitError struct {
	code int
	msg  string
}

func (e *jobExitError) Error() string { return e.msg }

func asJobExit(err error, out **jobExitError) bool {
	for ; err != nil; err = unwrap(err) {
		if je, ok := err.(*jobExitError); ok {
			*out = je
			return true
		}
	}
	return false
}

// httpError is a non-2xx response with the server's error text.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func asHTTP(err error, out **httpError) bool {
	for ; err != nil; err = unwrap(err) {
		if he, ok := err.(*httpError); ok {
			*out = he
			return true
		}
	}
	return false
}

func unwrap(err error) error {
	u, ok := err.(interface{ Unwrap() error })
	if !ok {
		return nil
	}
	return u.Unwrap()
}

// client is a minimal JSON client for the schedd API.
type client struct{ base string }

func (c *client) do(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("daemon unreachable: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		var e struct {
			Error string `json:"error"`
		}
		msg := strings.TrimSpace(string(data))
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			msg = e.Error
		}
		return &httpError{status: resp.StatusCode, msg: fmt.Sprintf("%s (HTTP %d)", msg, resp.StatusCode)}
	}
	if out != nil {
		return json.Unmarshal(data, out)
	}
	return nil
}

// argsFlag collects repeated -arg k=v pairs.
type argsFlag map[string]string

func (a argsFlag) String() string { return fmt.Sprint(map[string]string(a)) }
func (a argsFlag) Set(v string) error {
	k, val, ok := strings.Cut(v, "=")
	if !ok || k == "" {
		return fmt.Errorf("want key=value, got %q", v)
	}
	a[k] = val
	return nil
}

func cmdSubmit(c *client, args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	var (
		tenant     = fs.String("tenant", "", "submitting tenant (required)")
		program    = fs.String("program", "", "registered program name (required)")
		width      = fs.Int("width", 1, "gang width")
		minWidth   = fs.Int("min-width", 0, "elastic floor (0 = rigid)")
		id         = fs.String("id", "", "job id (empty = assigned)")
		recover    = fs.Bool("recover", false, "run with ULFM-style recovery")
		killRank   = fs.Int("kill-rank", -1, "inject a kill of this rank (-1 = none)")
		killAfter  = fs.Int("kill-after", 0, "let the victim send this many messages first")
		timeout    = fs.Duration("timeout", 0, "wall-clock budget per run (0 = daemon default)")
		opDeadline = fs.Duration("op-deadline", 0, "per-operation deadline (0 = daemon default)")
		maxRetries = fs.Int("max-retries", 0, "failed-run budget (0 = daemon default, negative = none)")
		wait       = fs.Bool("wait", false, "wait for the job to end; exit with its verdict")
		jobArgs    = argsFlag{}
	)
	fs.Var(jobArgs, "arg", "program argument key=value (repeatable)")
	fs.Parse(args)
	spec := sched.JobSpec{
		ID: *id, Tenant: *tenant, Program: *program,
		Width: *width, MinWidth: *minWidth, Args: jobArgs,
		Recover: *recover, KillAfter: *killAfter,
		Timeout: *timeout, OpDeadline: *opDeadline, MaxRetries: *maxRetries,
	}
	if *killRank >= 0 {
		spec.KillRank = killRank
	}
	var st sched.JobStatus
	if err := c.do("POST", "/api/v1/jobs", spec, &st); err != nil {
		return err
	}
	fmt.Println(st.ID)
	if !*wait {
		return nil
	}
	return waitJob(c, st.ID, 24*time.Hour)
}

func cmdStatus(c *client, args []string) error {
	if len(args) != 1 {
		return verdict.Usagef("status needs exactly one job id")
	}
	var st sched.JobStatus
	if err := c.do("GET", "/api/v1/jobs/"+args[0], nil, &st); err != nil {
		return err
	}
	printStatus(st)
	return nil
}

func cmdWait(c *client, args []string) error {
	fs := flag.NewFlagSet("wait", flag.ExitOnError)
	timeout := fs.Duration("timeout", 24*time.Hour, "give up after this long")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return verdict.Usagef("wait needs exactly one job id")
	}
	return waitJob(c, fs.Arg(0), *timeout)
}

// waitJob polls until the job is terminal, then translates its state into
// the shared verdict: succeeded 0, canceled 1, quarantined 3.
func waitJob(c *client, id string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		var st sched.JobStatus
		if err := c.do("GET", "/api/v1/jobs/"+id, nil, &st); err != nil {
			return err
		}
		switch st.State {
		case "succeeded":
			fmt.Printf("%s succeeded after %d attempt(s)\n", id, st.Attempts)
			return nil
		case "canceled":
			return &jobExitError{code: verdict.ExitLauncher, msg: fmt.Sprintf("%s canceled: %s", id, st.Error)}
		case "quarantined":
			return &jobExitError{code: verdict.ExitRank, msg: fmt.Sprintf("%s quarantined: %s", id, st.Error)}
		}
		if time.Now().After(deadline) {
			return &jobExitError{code: verdict.ExitLauncher, msg: fmt.Sprintf("%s still %s after %s", id, st.State, timeout)}
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func cmdLogs(c *client, args []string) error {
	if len(args) != 1 {
		return verdict.Usagef("logs needs exactly one job id")
	}
	resp, err := http.Get(c.base + "/api/v1/jobs/" + args[0] + "/logs")
	if err != nil {
		return fmt.Errorf("daemon unreachable: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		return &httpError{status: resp.StatusCode, msg: strings.TrimSpace(string(data))}
	}
	os.Stdout.Write(data)
	return nil
}

func cmdCancel(c *client, args []string) error {
	fs := flag.NewFlagSet("cancel", flag.ExitOnError)
	reason := fs.String("reason", "", "reason recorded in the job history")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return verdict.Usagef("cancel needs exactly one job id")
	}
	path := "/api/v1/jobs/" + fs.Arg(0)
	if *reason != "" {
		path += "?reason=" + strings.ReplaceAll(*reason, " ", "+")
	}
	var st sched.JobStatus
	if err := c.do("DELETE", path, nil, &st); err != nil {
		return err
	}
	printStatus(st)
	return nil
}

func cmdList(c *client, args []string) error {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	tenant := fs.String("tenant", "", "filter by tenant")
	state := fs.String("state", "", "filter by state")
	fs.Parse(args)
	path := "/api/v1/jobs"
	q := []string{}
	if *tenant != "" {
		q = append(q, "tenant="+*tenant)
	}
	if *state != "" {
		q = append(q, "state="+*state)
	}
	if len(q) > 0 {
		path += "?" + strings.Join(q, "&")
	}
	var jobs []sched.JobStatus
	if err := c.do("GET", path, nil, &jobs); err != nil {
		return err
	}
	for _, st := range jobs {
		fmt.Printf("%-12s %-10s %-20s %-12s width %d attempts %d\n",
			st.ID, st.Tenant, st.Program, st.State, st.Width, st.Attempts)
	}
	return nil
}

func cmdStats(c *client) error {
	var st sched.Stats
	if err := c.do("GET", "/api/v1/stats", nil, &st); err != nil {
		return err
	}
	data, _ := json.MarshalIndent(st, "", "  ")
	fmt.Println(string(data))
	return nil
}

func cmdNodes(c *client) error {
	var nodes []sched.NodeStatus
	if err := c.do("GET", "/api/v1/nodes", nil, &nodes); err != nil {
		return err
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
	for _, n := range nodes {
		state := "healthy"
		switch {
		case !n.Healthy:
			state = "DEAD"
		case n.Draining:
			state = "draining"
		case !n.Beating:
			state = "silent"
		}
		fmt.Printf("node %d  %-20s %-8s %d/%d slots used\n", n.ID, n.Hostname, state, n.Used, n.Capacity)
	}
	return nil
}

func cmdNode(c *client, args []string) error {
	if len(args) != 2 {
		return verdict.Usagef("node needs an operation (kill, silence, drain, revive) and a node id")
	}
	op, id := args[0], args[1]
	switch op {
	case "kill", "silence", "drain", "revive":
	default:
		return verdict.Usagef("unknown node operation %q", op)
	}
	if err := c.do("POST", "/api/v1/nodes/"+id+"/"+op, nil, nil); err != nil {
		return err
	}
	fmt.Printf("node %s: %s\n", id, op)
	return nil
}

func cmdPrograms(c *client) error {
	var programs []string
	if err := c.do("GET", "/api/v1/programs", nil, &programs); err != nil {
		return err
	}
	for _, p := range programs {
		fmt.Println(p)
	}
	return nil
}

func printStatus(st sched.JobStatus) {
	data, _ := json.MarshalIndent(st, "", "  ")
	fmt.Println(string(data))
}
