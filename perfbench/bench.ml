(* Wall-clock benchmark of the openarc toolchain.

   A closed-loop, single-threaded benchmark: one program at a time goes
   through the workload's user action (one "op"), timed from outside the
   library around its public calls.  The next op starts only when the
   previous one has finished and been checked against its known answer.
   README.md records why each workload and program set was chosen and
   which end-to-end metric each per-layer metric should move.

   Usage: bench.exe --workload debug|session-4dev|saturate --seed N
                    --seconds S --trace 0|1

   The last line of standard output is one JSON object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1. *)

module C = Openarc_core
module KV = Openarc_core.Kernel_verify
module Sess = Openarc_core.Session

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let alloc_words () =
  Gc.allocated_bytes () /. float_of_int (Sys.word_size / 8)

(* ------------------------------------------------------------------ *)
(* Machine-speed calibration                                           *)
(* ------------------------------------------------------------------ *)

(* On a shared machine the same op's wall time drifts by 20-40% from one
   run to the next as neighbours load the host.  Each op is therefore
   calibrated: a fixed tree-walking evaluator (a Jacobi stencil over
   float arrays, variables looked up by name in a hash table) runs before
   and after the op, and at the end of every major GC cycle inside it so
   that a long op (a saturate search takes seconds) is sampled across the
   speed regimes it spans.  It does the same kind of work as the
   toolchain's interpreters, so it tracks their speed; it involves none
   of the libraries under test; and the little it allocates is taken out
   of the op's allocation count.  Op times are reported scaled to the
   speed at which one calibration takes [cal_ref] seconds; the raw wall
   times are printed beside them. *)
module Cal = struct
  type e =
    | Const of float
    | Var of string
    | Idx of string * e
    | Add of e * e
    | Mul of e * e

  let n = 64
  let env : (string, int) Hashtbl.t = Hashtbl.create 8
  let arrays : (string, float array) Hashtbl.t = Hashtbl.create 2
  let slots = Array.make 4 0.0

  (* evaluation stack: results are stored, never boxed *)
  let stack = Array.make 16 0.0

  let () =
    List.iteri (fun i v -> Hashtbl.replace env v i) [ "i"; "j"; "n" ];
    Hashtbl.replace arrays "a" (Array.init (n * n) float_of_int);
    Hashtbl.replace arrays "b" (Array.make (n * n) 0.0)

  let rec eval e sp =
    match e with
    | Const x -> stack.(sp) <- x
    | Var v -> stack.(sp) <- slots.(Hashtbl.find env v)
    | Idx (a, i) ->
        eval i sp;
        stack.(sp) <- (Hashtbl.find arrays a).(int_of_float stack.(sp))
    | Add (a, b) ->
        eval a sp;
        eval b (sp + 1);
        stack.(sp) <- stack.(sp) +. stack.(sp + 1)
    | Mul (a, b) ->
        eval a sp;
        eval b (sp + 1);
        stack.(sp) <- stack.(sp) *. stack.(sp + 1)

  let stencil =
    let at d = Add (Add (Mul (Var "i", Var "n"), Var "j"), Const d) in
    Mul
      ( Const 0.25,
        Add
          ( Add (Idx ("a", at (-1.)), Idx ("a", at 1.)),
            Add (Idx ("a", at (-.float_of_int n)), Idx ("a", at (float_of_int n)))
          ) )

  (* Seconds for one calibration: one sweep of the stencil.  The slot
     stores are written out so that no float is boxed. *)
  let once () =
    let t0 = now () in
    let b = Hashtbl.find arrays "b" in
    slots.(Hashtbl.find env "n") <- float_of_int n;
    for i = 1 to n - 2 do
      slots.(Hashtbl.find env "i") <- float_of_int i;
      for j = 1 to n - 2 do
        slots.(Hashtbl.find env "j") <- float_of_int j;
        eval stencil 0;
        b.((i * n) + j) <- stack.(0)
      done
    done;
    now () -. t0

  (* Median of three. *)
  let time () =
    let a = once () and b = once () and c = once () in
    Float.max (Float.min a b) (Float.min (Float.max a b) c)
end

(* Seconds one calibration takes at the reference speed. *)
let cal_ref = 0.0025

(* Calibrations taken inside the current op: [| count; calibration
   seconds; wall seconds they took; words they allocated |], updated
   without allocating. *)
let inside_op = ref false
let inner = Array.make 4 0.0

let _alarm =
  Gc.create_alarm (fun () ->
      if !inside_op then begin
        let a0 = alloc_words () in
        let t0 = now () in
        let c = Cal.once () in
        inner.(0) <- inner.(0) +. 1.0;
        inner.(1) <- inner.(1) +. c;
        inner.(2) <- inner.(2) +. (now () -. t0);
        inner.(3) <- inner.(3) +. (alloc_words () -. a0)
      end)

(* Wall clock that stands still while an inner calibration runs. *)
let op_clock () = now () -. inner.(2)

(* Run [f] under calibration: its wall seconds and the words it
   allocated, inner calibrations taken out of both, and the factor that
   scales its time to the reference speed. *)
let calibrated f =
  let c0 = Cal.time () in
  Array.fill inner 0 4 0.0;
  inside_op := true;
  let a0 = alloc_words () in
  let t0 = now () in
  let r = f () in
  let dt = now () -. t0 in
  let words = alloc_words () -. a0 in
  inside_op := false;
  let c1 = Cal.time () in
  let mean_cal = (c0 +. c1 +. inner.(1)) /. (2.0 +. inner.(0)) in
  (r, dt -. inner.(2), words -. inner.(3), cal_ref /. mean_cal)

(* ------------------------------------------------------------------ *)
(* Workloads and known answers                                         *)
(* ------------------------------------------------------------------ *)

type workload = Debug | Session4 | Saturate

let workloads =
  [ ("debug", Debug); ("session-4dev", Session4); ("saturate", Saturate) ]

(* Table II (EXPERIMENTS.md): kernels of the fault-injection build whose
   race corrupts outputs; verification must detect exactly these. *)
let table2_active = [ ("BACKPROP", 1); ("CG", 2); ("EP", 1) ]

(* Table III (EXPERIMENTS.md): total and incorrect iterations of the
   scripted Figure-2 session.  They hold at 4 devices too. *)
let table3 =
  [ ("BACKPROP", (3, 1)); ("BFS", (3, 0)); ("CFD", (3, 0)); ("CG", (3, 0));
    ("EP", (2, 0)); ("HOTSPOT", (2, 0)); ("JACOBI", (2, 0));
    ("KMEANS", (3, 0)); ("LUD", (3, 3)); ("NW", (2, 0)); ("SPMUL", (2, 0));
    ("SRAD", (3, 0)) ]

(* The committed search baseline: per program, the accepted rewrites in
   order, and the before/after simulated totals at the baseline's seed.
   The search runs at that seed rather than the workload's: which
   rewrites pass its measured-saving gate depends on the simulated
   transfer jitter (at seed 6 KMEANS accepts 5 rewrites instead of 6 and
   CG 8 instead of 11), so no other seed has a known answer. *)
type sat_baseline = {
  sb_seed : int;
  sb_accepted : string list;
  sb_before : string;
  sb_after : string;
}

let saturate_baseline_path = "BENCH_saturate.json"

let load_saturate_baseline () =
  let ic = open_in_bin saturate_baseline_path in
  let doc =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let open Obs.Pjson in
  let j = parse doc in
  let get k j =
    match member k j with
    | Some v -> v
    | None -> Fmt.failwith "%s: missing %S" saturate_baseline_path k
  in
  let seed = int_of_float (num_exn (get "seed" j)) in
  List.map
    (fun e ->
      let r = get "result" e in
      let accepted =
        List.filter_map
          (fun s ->
            match get "accepted" s with
            | Bool true -> Some (str_exn (get "candidate" s))
            | _ -> None)
          (arr_exn (get "steps" r))
      in
      ( str_exn (get "name" e),
        { sb_seed = seed;
          sb_accepted = accepted;
          sb_before = Printf.sprintf "%.9f" (num_exn (get "total_before_s" r));
          sb_after = Printf.sprintf "%.9f" (num_exn (get "total_after_s" r)) }
      ))
    (arr_exn (get "benchmarks" j))

(* ------------------------------------------------------------------ *)
(* Set-up: the seeded program order, parsed programs, reference outputs *)
(* ------------------------------------------------------------------ *)

type prog = {
  b : Suite.Bench_def.t;
  ast : Minic.Ast.program;
  reference : Accrt.Value.t;  (** sequential reference environment *)
  before_s : float;  (** simulated time of the source build (session) *)
  baseline : sat_baseline option;  (** saturate *)
}

let name p = p.b.Suite.Bench_def.name

let translate prog =
  Codegen.Translate.translate (Minic.Typecheck.check prog) prog

let sim_time o = Gpusim.Metrics.total_time (Accrt.Interp.metrics o)

let shuffle ~seed l =
  let a = Array.of_list l in
  let st = Random.State.make [| seed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let setup w ~seed =
  let baselines =
    match w with Saturate -> load_saturate_baseline () | _ -> []
  in
  List.map
    (fun (b : Suite.Bench_def.t) ->
      let ast =
        Minic.Parser.parse_string ~file:"<input>" b.Suite.Bench_def.source
      in
      let reference = (Accrt.Eval.run_reference ast).Accrt.Eval.env in
      let before_s =
        match w with
        | Session4 -> sim_time (Accrt.Interp.run ~seed ~devices:4 (translate ast))
        | _ -> 0.0
      in
      let baseline =
        match w with
        | Saturate -> (
            match List.assoc_opt b.Suite.Bench_def.name baselines with
            | Some sb -> Some sb
            | None ->
                Fmt.failwith "%s has no entry for %s" saturate_baseline_path
                  b.Suite.Bench_def.name)
        | _ -> None
      in
      { b; ast; reference; before_s; baseline })
    (shuffle ~seed Suite.Registry.all)

(* ------------------------------------------------------------------ *)
(* Ops                                                                 *)
(* ------------------------------------------------------------------ *)

(* Spans recorded from the benchmark's side of each public call.  The
   untraced op runs the same code with spans that only call through. *)
type tracer = {
  span : 'a. string -> (unit -> 'a) -> 'a;
  compile_obs : unit -> Obs.Trace.t option;
}

let untraced = { span = (fun _ f -> f ()); compile_obs = (fun () -> None) }

type raw =
  | R_debug of {
      c : C.Compiler.compiled;
      diags : Lint.Diag.t list;
      v_src : KV.t;
      v_fault : KV.t;
      run : Accrt.Interp.outcome;
      text : string;
    }
  | R_session of Sess.result * string
  | R_saturate of Saturate.t * string

(* The text a user reads after one debug iteration: lint findings, both
   verification reports, the run's cost table, grouped coherence reports
   and suggestions (as `openarc lint`, `verify`, `run --instrument`). *)
let render diags v_src v_fault run =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  List.iter (Fmt.pf ppf "%a@." Lint.Diag.pp) diags;
  List.iter
    (fun v ->
      List.iter (Fmt.pf ppf "%a@." KV.pp_report) v.KV.reports;
      Fmt.pf ppf "@.%d kernel(s) with detected errors@."
        (List.length (KV.detected_errors v)))
    [ v_src; v_fault ];
  Fmt.pf ppf "%a@." Gpusim.Metrics.pp (Accrt.Interp.metrics run);
  let reports = Accrt.Interp.reports run in
  Fmt.pf ppf "@.%d report(s), grouped:@." (List.length reports);
  List.iter (Fmt.pf ppf "  %s@.") (Accrt.Coherence.summarize reports);
  Fmt.pf ppf "@.suggestions:@.";
  List.iter (Fmt.pf ppf "  %a@." C.Suggest.pp) (C.Suggest.analyze run);
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let op w tr ~seed p =
  match w with
  | Debug ->
      let c =
        C.Compiler.compile ?obs:(tr.compile_obs ()) ~file:"<input>"
          p.b.Suite.Bench_def.source
      in
      let diags = tr.span "lint" (fun () -> Lint.run_tprog c.C.Compiler.tprog) in
      let v_src = tr.span "verify" (fun () -> C.Compiler.verify c) in
      let v_fault =
        tr.span "verify" (fun () ->
            KV.verify ~opts:Codegen.Options.fault_injection
              (C.Faults.strip_parallelism_clauses c.C.Compiler.program))
      in
      (* Compiler.run_instrumented, split into its two public calls *)
      let tp =
        tr.span "instrument" (fun () ->
            Codegen.Checkgen.instrument c.C.Compiler.tprog)
      in
      let run =
        tr.span "run_coherence" (fun () ->
            Accrt.Interp.run ~coherence:true ~seed tp)
      in
      let text = tr.span "render" (fun () -> render diags v_src v_fault run) in
      R_debug { c; diags; v_src; v_fault; run; text }
  | Session4 ->
      let r =
        tr.span "session" (fun () ->
            Sess.optimize ~devices:4 ~outputs:p.b.Suite.Bench_def.outputs
              p.ast)
      in
      let name = "bench:" ^ String.lowercase_ascii (name p) in
      R_session (r, tr.span "json" (fun () -> Sess.to_json ~name r))
  | Saturate ->
      let config =
        { Saturate.default_config with
          Saturate.seed = (Option.get p.baseline).sb_seed }
      in
      let r =
        tr.span "saturate" (fun () ->
            Saturate.run ~config ~name:(name p)
              ~outputs:p.b.Suite.Bench_def.outputs p.ast)
      in
      R_saturate (r, tr.span "json" (fun () -> Saturate.to_json r))

(* ------------------------------------------------------------------ *)
(* Known-answer checks (run after the op's clock has stopped)          *)
(* ------------------------------------------------------------------ *)

type gpu = {
  launches : int;
  transfers : int;
  bytes : int;
  checks : int;
  sim_s : float;
}

let gpu_of (m : Gpusim.Metrics.t) =
  { launches = m.Gpusim.Metrics.kernel_launches;
    transfers = m.Gpusim.Metrics.transfers_h2d + m.Gpusim.Metrics.transfers_d2h;
    bytes = m.Gpusim.Metrics.bytes_h2d + m.Gpusim.Metrics.bytes_d2h;
    checks = m.Gpusim.Metrics.checks;
    sim_s = Gpusim.Metrics.total_time m }

type verdict = {
  errors : string list;  (** empty: the op met its known answer *)
  signature : string;
      (** the op's counts; must repeat exactly on every repetition *)
  invariant : string;
      (** the part of [signature] independent of the simulation seed *)
  sim : string;
      (** simulated times.  Within one process a session op's final time
          was seen to change in its last digits between repetitions while
          every count repeated, so they are compared only across fresh
          processes with the same seed *)
  speedup : float;  (** simulated time before / after the op's output *)
  gpu : gpu;  (** simulated work of the op's output program *)
}

let expect cond fmt =
  Fmt.kstr (fun msg -> if cond then [] else [ msg ]) fmt

let gpu_sig g =
  Printf.sprintf "launches=%d transfers=%d bytes=%d checks=%d" g.launches
    g.transfers g.bytes g.checks

let check ~seed p raw =
  let outputs = p.b.Suite.Bench_def.outputs in
  let matches o = Sess.outputs_match ~outputs ~reference:p.reference o in
  match raw with
  | R_debug { c; diags; v_src; v_fault; run; text } ->
      let active =
        Option.value ~default:0 (List.assoc_opt (name p) table2_active)
      in
      let src = List.length (KV.detected_errors v_src) in
      let fault = List.length (KV.detected_errors v_fault) in
      let gpu = gpu_of (Accrt.Interp.metrics run) in
      let invariant =
        Printf.sprintf "kernels=%d lint=%d detected=%d/%d seq_ops=%d %s \
                        reports=%d"
          (Array.length c.C.Compiler.tprog.Codegen.Tprog.kernels)
          (List.length diags) src fault v_src.KV.sequential_ops (gpu_sig gpu)
          (List.length (Accrt.Interp.reports run))
      in
      { errors =
          expect (src = 0) "source build: %d kernel(s) detected, expected 0"
            src
          @ expect (fault = active)
              "fault build: %d kernel(s) detected, Table II has %d" fault
              active
          @ expect (matches run) "instrumented run: outputs differ from the \
                                  sequential reference"
          @ expect (text <> "") "empty report";
        signature = invariant;
        invariant;
        sim = Printf.sprintf "%.9f" gpu.sim_s;
        speedup = 1.0;
        gpu }
  | R_session (r, json) ->
      let it, inc = List.assoc (name p) table3 in
      let final = Accrt.Interp.run ~seed ~devices:4 (translate r.Sess.final) in
      let gpu = gpu_of (Accrt.Interp.metrics final) in
      let invariant =
        Printf.sprintf "iterations=%d incorrect=%d converged=%b %s"
          r.Sess.iterations r.Sess.incorrect_iterations r.Sess.converged
          (gpu_sig gpu)
      in
      { errors =
          expect r.Sess.converged "session did not converge"
          @ expect
              (r.Sess.iterations = it && r.Sess.incorrect_iterations = inc)
              "%d iteration(s), %d incorrect; Table III has %d, %d"
              r.Sess.iterations r.Sess.incorrect_iterations it inc
          @ expect (matches final)
              "final program: outputs differ from the sequential reference"
          @ expect (json <> "") "empty session document";
        signature = invariant;
        invariant;
        sim = Printf.sprintf "%.9f->%.9f" p.before_s gpu.sim_s;
        speedup = p.before_s /. gpu.sim_s;
        gpu }
  | R_saturate (r, json) ->
      let sb = Option.get p.baseline in
      let accepted =
        List.filter_map
          (fun s -> if s.Saturate.st_accepted then Some s.Saturate.st_label
                    else None)
          r.Saturate.r_steps
      in
      let before = Printf.sprintf "%.9f" r.Saturate.r_total_before in
      let after = Printf.sprintf "%.9f" r.Saturate.r_total_after in
      let final = Accrt.Interp.run ~seed (translate r.Saturate.r_program) in
      let gpu = gpu_of (Accrt.Interp.metrics final) in
      let invariant =
        Printf.sprintf "accepted=%d steps=%d hits=%d compiles=%d %s"
          r.Saturate.r_accepted
          (List.length r.Saturate.r_steps)
          r.Saturate.r_compile_hits r.Saturate.r_compiles (gpu_sig gpu)
      in
      { errors =
          expect (accepted = sb.sb_accepted)
            "accepted %d rewrite(s), %s has %d (or in another order)"
            (List.length accepted) saturate_baseline_path
            (List.length sb.sb_accepted)
          @ expect
              (before = sb.sb_before && after = sb.sb_after)
              "simulated %s -> %s s, %s has %s -> %s" before after
              saturate_baseline_path sb.sb_before sb.sb_after
          @ expect (matches final)
              "optimized program: outputs differ from the sequential \
               reference";
        signature =
          Printf.sprintf "%s json=%s" invariant
            (Digest.to_hex (Digest.string json));
        invariant;
        sim = Printf.sprintf "%s->%s" before after;
        speedup = r.Saturate.r_total_before /. r.Saturate.r_total_after;
        gpu }

(* ------------------------------------------------------------------ *)
(* Timed ops                                                           *)
(* ------------------------------------------------------------------ *)

type sample = {
  s_prog : prog;
  s_pass : int;
  s_ms : float;  (** wall time *)
  s_speed : float;  (** scales [s_ms] to the reference speed *)
  s_alloc_w : float;
  s_verdict : verdict option;  (** [None] when the op or its check raised *)
  s_errors : string list;
}

let ref_ms s = s.s_ms *. s.s_speed

(* First signature seen per program: every later repetition in this
   process must reproduce it exactly. *)
let signatures : (string, string) Hashtbl.t = Hashtbl.create 16

(* One timed op and its check; the op's raw result is returned beside
   the sample so that only the traced run keeps it. *)
let run_op w tr ~seed ~pass p =
  let raw, dt, words, speed =
    calibrated (fun () ->
        try Ok (op w tr ~seed p) with e -> Error (Printexc.to_string e))
  in
  let raw, verdict, errors =
    match raw with
    | Error e -> (None, None, [ "raised " ^ e ])
    | Ok raw -> (
        match check ~seed p raw with
        | exception e ->
            (Some raw, None, [ "check raised " ^ Printexc.to_string e ])
        | v ->
            let drift =
              match Hashtbl.find_opt signatures (name p) with
              | None ->
                  Hashtbl.replace signatures (name p) v.signature;
                  []
              | Some s when s = v.signature -> []
              | Some s ->
                  [ Printf.sprintf "DRIFT: counts %S, first repetition %S"
                      v.signature s ]
            in
            (Some raw, Some v, v.errors @ drift))
  in
  List.iter
    (fun e -> Fmt.epr "perfbench: %s (pass %d): %s@." (name p) pass e)
    errors;
  ( { s_prog = p;
      s_pass = pass;
      s_ms = dt *. 1e3;
      s_speed = speed;
      s_alloc_w = words;
      s_verdict = verdict;
      s_errors = errors },
    raw )

(* Whole passes over the seeded order: another pass starts only while it
   is expected to end within [seconds]; the first always runs. *)
let passes ~seconds f =
  let start = now () in
  let rec go pass acc =
    let t0 = now () in
    let acc = List.rev_append (f pass) acc in
    let dt = now () -. t0 in
    if now () -. start +. dt <= seconds then go (pass + 1) acc
    else List.rev acc
  in
  go 1 []

(* ------------------------------------------------------------------ *)
(* Statistics and output                                               *)
(* ------------------------------------------------------------------ *)

let quantile q l =
  match List.sort compare l with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let i = int_of_float (Float.floor pos) in
      let j = min (n - 1) (i + 1) in
      a.(i) +. ((pos -. float_of_int i) *. (a.(j) -. a.(i)))

let median = quantile 0.5

let geomean l =
  exp (List.fold_left (fun a x -> a +. log x) 0.0 l /. float_of_int (List.length l))

let sum = List.fold_left ( +. ) 0.0

let json_num x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "null"

let print_result ~correct ~attempted ~failed metrics =
  let ms =
    List.map
      (fun (n, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_num v) unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed (String.concat ", " ms)

(* Order-preserving group-by program name. *)
let by_program samples =
  List.fold_left
    (fun acc s ->
      let n = name s.s_prog in
      if List.mem_assoc n acc then
        List.map (fun (k, l) -> if k = n then (k, s :: l) else (k, l)) acc
      else acc @ [ (n, [ s ]) ])
    [] samples
  |> List.map (fun (k, l) -> (k, List.rev l))

(* One line per program for determinism.py: the counts, their
   seed-independent part, the simulated times and the allocation of the
   program's first op. *)
let print_signatures samples =
  List.iter
    (fun (n, l) ->
      let first = List.hd l in
      match first.s_verdict with
      | None -> ()
      | Some v ->
          Printf.printf "signature\t%s\t%s\t%s\t%s\t%.0f\n" n v.signature
            v.invariant v.sim first.s_alloc_w)
    (by_program samples)

(* ------------------------------------------------------------------ *)
(* Per-layer probes (--trace 1)                                        *)
(* ------------------------------------------------------------------ *)

(* Mean wall time and allocation of one call of [f]: calls repeat until
   2 ms have passed (at most 100 calls), so sub-millisecond layers are
   not lost in the clock's resolution. *)
let probe f =
  let n = ref 0 and total = ref 0.0 and words = ref 0.0 and last = ref None in
  while !n = 0 || (!total < 0.002 && !n < 100) do
    let a0 = alloc_words () in
    let t0 = now () in
    last := Some (f ());
    total := !total +. (now () -. t0);
    words := !words +. (alloc_words () -. a0);
    incr n
  done;
  (Option.get !last, !total /. float_of_int !n, !words /. float_of_int !n)

type probed = {
  per_call : (string, float) Hashtbl.t;  (** layer -> seconds per call *)
  alloc : (string, float) Hashtbl.t;  (** layer -> words per call *)
  counts : (string, int) Hashtbl.t;
}

let profile_categories =
  List.map Gpusim.Metrics.category_name Gpusim.Metrics.all_categories

let ledger_run ~seed ~devices tp =
  let lg =
    Obs.Ledger.create ~devices
      ~schedule:(Gpusim.Device_set.schedule_name Gpusim.Device_set.Block)
  in
  (Accrt.Interp.run ~coherence:true ~seed ~devices ~ledger:lg tp, lg)

let analyze (o, lg) =
  let cm = o.Accrt.Interp.device.Gpusim.Device.cm in
  Obs.Ledger.analyze lg ~pcie_latency:cm.Gpusim.Costmodel.pcie_latency
    ~pcie_bandwidth:cm.Gpusim.Costmodel.pcie_bandwidth

(* Time each layer's public call once (see [probe]) on program [p]. *)
let probe_layers ~seed p =
  let per_call = Hashtbl.create 32 and alloc = Hashtbl.create 4 in
  let counts = Hashtbl.create 16 in
  let time key f =
    let r, s, w = probe f in
    Hashtbl.replace per_call key s;
    Hashtbl.replace alloc key w;
    r
  in
  let count key n = Hashtbl.replace counts key n in
  let src = p.b.Suite.Bench_def.source in
  let outputs = p.b.Suite.Bench_def.outputs in
  let ast =
    time "minic.parse" (fun () -> Minic.Parser.parse_string ~file:"<input>" src)
  in
  let env = time "minic.typecheck" (fun () -> Minic.Typecheck.check ast) in
  ignore (time "minic.pretty" (fun () -> Minic.Pretty.program_to_string ast));
  time "acc.validate" (fun () -> Acc.Validate.check_program ast);
  let tp =
    time "codegen.translate" (fun () -> Codegen.Translate.translate env ast)
  in
  count "codegen.kernels" (Array.length tp.Codegen.Tprog.kernels);
  let itp = time "codegen.instrument" (fun () -> Codegen.Checkgen.instrument tp) in
  count "lint.diags" (List.length (time "lint.run" (fun () -> Lint.run_tprog tp)));
  ignore (time "accrt.reference" (fun () -> Accrt.Eval.run_reference ast));
  ignore (time "accrt.run_tree" (fun () -> Accrt.Interp.run ~seed tp));
  ignore
    (time "accrt.run_compiled" (fun () ->
         Accrt.Interp.run ~engine:Accrt.Engine.Compiled ~seed tp));
  ignore
    (time "accrt.run_coherence" (fun () ->
         Accrt.Interp.run ~coherence:true ~seed itp));
  let dev4 = time "accrt.run_dev4" (fun () -> ledger_run ~seed ~devices:4 itp) in
  let a4 = time "obs.ledger_analyze" (fun () -> analyze dev4) in
  count "obs.wasted_bytes" a4.Obs.Ledger.a_wasted_bytes;
  let tr = Obs.Trace.create () in
  ignore (Accrt.Interp.run ~seed ~obs:tr tp);
  let prof =
    time "obs.profile" (fun () ->
        Obs.Profile.of_trace ~categories:profile_categories tr)
  in
  ignore
    (time "obs.json" (fun () ->
         Obs.Profile.to_json ~name:(name p) ~seed prof));
  let sq = time "symeq.check" (fun () -> Symeq.Engine.check_tprog tp) in
  count "symeq.proved" sq.Symeq.Engine.proved;
  count "symeq.unknown" sq.Symeq.Engine.unknown;
  let v = time "core.verify" (fun () -> KV.verify ~env:(Some env) ast) in
  count "core.sequential_ops" v.KV.sequential_ops;
  ignore
    (time "core.verify_symbolic" (fun () ->
         KV.verify ~symbolic:true ~env:(Some env) ast));
  let r =
    time "core.session" (fun () -> Sess.optimize ~devices:4 ~outputs ast)
  in
  count "core.session_iterations" r.Sess.iterations;
  count "core.session_incorrect" r.Sess.incorrect_iterations;
  let o1, lg1 = ledger_run ~seed ~devices:1 itp in
  let a1 = analyze (o1, lg1) in
  ignore
    (time "saturate.candidates" (fun () ->
         Saturate.candidates ast o1.Accrt.Interp.tprog a1 o1));
  { per_call; alloc; counts }

(* Per-layer time metrics, in table order.  The value reported is the
   layer's self time per call; the share is the part of the untraced op
   the layer accounts for on this workload (0: the workload bypasses it). *)
let time_layers =
  [ "minic.parse"; "minic.typecheck"; "minic.pretty"; "acc.validate";
    "codegen.translate"; "codegen.instrument"; "lint.run"; "accrt.reference";
    "accrt.run_tree"; "accrt.run_compiled"; "accrt.run_coherence";
    "accrt.run_dev4"; "symeq.check"; "core.verify"; "core.verify_symbolic";
    "core.session"; "obs.ledger_analyze"; "obs.profile"; "obs.json";
    "saturate.candidates" ]

let count_layers =
  [ ("codegen.kernels", "count"); ("lint.diags", "count");
    ("accrt.engine_compiles", "count"); ("gpusim.launches", "count");
    ("gpusim.transfers", "count"); ("gpusim.bytes", "bytes");
    ("gpusim.checks", "count"); ("gpusim.sim_s", "s");
    ("symeq.proved", "count"); ("symeq.unknown", "count");
    ("core.sequential_ops", "count"); ("core.session_iterations", "count");
    ("core.session_incorrect", "count"); ("obs.wasted_bytes", "bytes");
    ("saturate.steps", "count"); ("saturate.accept_ratio", "ratio");
    ("saturate.compile_hit_ratio", "ratio") ]

(* Self time per call: nested public calls are subtracted. *)
let self_time pr key =
  let g k = Hashtbl.find pr.per_call k in
  match key with
  | "core.verify" -> g key -. g "accrt.reference"
  | "core.verify_symbolic" ->
      g key -. g "accrt.reference" -. g "symeq.check"
  | "core.session" ->
      (* one session probe = the session op's own call counts *)
      let it = float_of_int (Hashtbl.find pr.counts "core.session_iterations") in
      g key
      -. g "acc.validate" -. g "accrt.reference"
      -. ((1.0 +. it) *. g "minic.typecheck")
      -. (it
          *. (g "codegen.translate" +. g "codegen.instrument"
              +. g "accrt.run_dev4" +. g "obs.profile"
              +. g "obs.ledger_analyze"))
  | _ -> g key

(* How far a saturate step climbed the validation ladder, from its
   recorded reason: 0 edit failed, 1 static checks and print/reparse,
   2 kernel verification, 3 the engine x device-set runs, 4 the
   measurement run. *)
let rung (s : Saturate.step) =
  let r = s.Saturate.st_reason in
  let has p =
    let lp = String.length p in
    String.length r >= lp && String.sub r 0 lp = p
  in
  if s.Saturate.st_accepted || has "rejected: measure" then 4
  else if has "rejected: outputs diverged" || has "rejected: run failed" then 3
  else if has "rejected: kernel verification" then 2
  else if
    has "rejected: invalid program" || has "rejected: patched source"
    || has "rejected: print/reparse"
  then 1
  else 0

(* Seconds of the traced op attributed to each layer: measured spans
   where the op calls the layer directly, calls x per-call probe time
   (an estimate) where the call is nested inside Session or Saturate. *)
let attribute w pr spans raw =
  let g k = Hashtbl.find pr.per_call k in
  let sp k = Option.value ~default:0.0 (Hashtbl.find_opt spans k) in
  match (w, raw) with
  | Debug, _ ->
      let reference = 2.0 *. g "accrt.reference" in
      [ ("minic.parse", sp "parse"); ("minic.typecheck", sp "typecheck");
        ("acc.validate", sp "validate"); ("codegen.translate", sp "translate");
        ("lint.run", sp "lint"); ("codegen.instrument", sp "instrument");
        ("accrt.run_coherence", sp "run_coherence");
        ("accrt.reference", reference);
        ("core.verify", sp "verify" -. reference) ]
  | Session4, R_session (r, _) ->
      let it = float_of_int r.Sess.iterations in
      let est =
        [ ("acc.validate", g "acc.validate");
          ("minic.typecheck", (1.0 +. it) *. g "minic.typecheck");
          ("accrt.reference", g "accrt.reference");
          ("codegen.translate", it *. g "codegen.translate");
          ("codegen.instrument", it *. g "codegen.instrument");
          ("accrt.run_dev4", it *. g "accrt.run_dev4");
          ("obs.profile", it *. g "obs.profile");
          ("obs.ledger_analyze", it *. g "obs.ledger_analyze") ]
      in
      (("core.session", sp "session" -. sum (List.map snd est)) :: est)
      @ [ ("obs.json", sp "json") ]
  | Saturate, R_saturate (r, _) ->
      let steps = r.Saturate.r_steps in
      let reached k =
        float_of_int (List.length (List.filter (fun s -> rung s >= k) steps))
      in
      let r1 = reached 1 and r2 = reached 2 and r3 = reached 3 in
      let r4 = reached 4 in
      let n = List.length steps in
      (* one ledger iteration per step, plus the one that found nothing *)
      let ledgers =
        float_of_int
          (if n < Saturate.default_config.Saturate.max_steps then n + 1 else n)
      in
      let profiles = 2.0 +. r4 in
      let trees = profiles +. 3.0 +. (3.0 *. r3) in
      let compiled = 3.0 +. (3.0 *. r3) in
      let translates = trees +. compiled +. ledgers in
      [ ("minic.parse", (1.0 +. r1) *. g "minic.parse");
        ("minic.pretty", (1.0 +. r1) *. g "minic.pretty");
        ("acc.validate", r1 *. g "acc.validate");
        ("minic.typecheck", (translates +. r1) *. g "minic.typecheck");
        ("codegen.translate", translates *. g "codegen.translate");
        ("codegen.instrument", ledgers *. g "codegen.instrument");
        ("accrt.run_coherence", ledgers *. g "accrt.run_coherence");
        ("obs.ledger_analyze", ledgers *. g "obs.ledger_analyze");
        ("saturate.candidates", ledgers *. g "saturate.candidates");
        ("accrt.run_tree", trees *. g "accrt.run_tree");
        ("accrt.run_compiled", compiled *. g "accrt.run_compiled");
        ("obs.profile", profiles *. g "obs.profile");
        ("accrt.reference", r2 *. g "accrt.reference");
        ("symeq.check", r2 *. g "symeq.check");
        ("core.verify_symbolic",
          r2 *. (g "core.verify_symbolic" -. g "accrt.reference"
                 -. g "symeq.check"));
        ("obs.json", sp "json") ]
  | _ -> []

(* Counts of one op that come from its own return values. *)
let op_counts raw (v : verdict) =
  let gpu =
    [ ("gpusim.launches", float_of_int v.gpu.launches);
      ("gpusim.transfers", float_of_int v.gpu.transfers);
      ("gpusim.bytes", float_of_int v.gpu.bytes);
      ("gpusim.checks", float_of_int v.gpu.checks);
      ("gpusim.sim_s", v.gpu.sim_s) ]
  in
  match raw with
  | R_saturate (r, _) ->
      gpu
      @ [ ("accrt.engine_compiles", float_of_int r.Saturate.r_compiles);
          ("saturate.steps", float_of_int (List.length r.Saturate.r_steps));
          ("saturate.accepted", float_of_int r.Saturate.r_accepted);
          ("saturate.hits", float_of_int r.Saturate.r_compile_hits) ]
  | _ -> gpu

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let usage =
  "bench.exe --workload debug|session-4dev|saturate --seed N --seconds S \
   --trace 0|1"

let mb_of_words w = float_of_int (w * (Sys.word_size / 8)) /. 1e6

(* End-to-end metrics of an untraced run. *)
let report ~setup_s samples =
  let rows = by_program samples in
  Printf.printf "%-10s %4s %10s %12s %12s %10s\n" "program" "n" "wall_ms"
    "median_ms" "p90_ms" "speedup";
  let medians =
    List.map
      (fun (n, l) ->
        let ms = List.map ref_ms l in
        let speedup =
          match (List.hd l).s_verdict with Some v -> v.speedup | None -> nan
        in
        Printf.printf "%-10s %4d %10.3f %12.3f %12.3f %10.4f\n" n
          (List.length l)
          (median (List.map (fun s -> s.s_ms) l))
          (median ms) (quantile 0.9 ms) speedup;
        (median ms, speedup))
      rows
  in
  Printf.printf "(wall_ms: median wall time; median_ms, p90_ms: scaled to \
                 the reference speed, median factor %.3f)\n"
    (median (List.map (fun s -> s.s_speed) samples));
  let first = List.filter (fun s -> s.s_pass = 1) samples in
  [ ("op_geomean_ms", geomean (List.map fst medians), "ms");
    ("op_worst_ms", List.fold_left max 0.0 (List.map fst medians), "ms");
    ("ops_per_s",
      float_of_int (List.length samples)
      /. (sum (List.map ref_ms samples) /. 1e3),
      "1/s");
    ("setup_s", setup_s, "s");
    ("peak_heap_mb", mb_of_words (Gc.quick_stat ()).Gc.top_heap_words, "MB");
    ("alloc_mw_per_op",
      sum (List.map (fun s -> s.s_alloc_w) first)
      /. float_of_int (List.length first) /. 1e6,
      "Mw");
    ("sim_speedup_geomean", geomean (List.map snd medians), "x") ]

(* Per-layer metrics of a traced run: per pass and program, an untraced
   op, the same op traced, then one probe of every layer's public call
   on that program. *)
let traced_run w ~seed ~seconds progs =
  let spans = Hashtbl.create 16 in
  let compile_traces = ref [] in
  let add key dt =
    Hashtbl.replace spans key
      (dt +. Option.value ~default:0.0 (Hashtbl.find_opt spans key))
  in
  let traced =
    { span =
        (fun key f ->
          let t0 = op_clock () in
          Fun.protect f ~finally:(fun () -> add key (op_clock () -. t0)));
      compile_obs =
        (fun () ->
          (* phase spans of Compiler.compile, stamped with the wall clock *)
          let tr = Obs.Trace.create ~clock:op_clock () in
          compile_traces := tr :: !compile_traces;
          Some tr) }
  in
  let rows =
    passes ~seconds (fun pass ->
        List.mapi
          (fun i p ->
            let untraced_op () = fst (run_op w untraced ~seed ~pass p) in
            let traced_op () =
              Hashtbl.reset spans;
              compile_traces := [];
              run_op w traced ~seed ~pass p
            in
            (* alternate which of the pair runs first, so that the
               second one's warmer caches cancel out of the overhead *)
            let u, (t, raw) =
              if i mod 2 = 0 then
                let u = untraced_op () in
                (u, traced_op ())
              else
                let t = traced_op () in
                (untraced_op (), t)
            in
            List.iter
              (fun tr ->
                List.iter
                  (fun (sp : Obs.Trace.span) ->
                    match (sp.Obs.Trace.sp_kind, sp.Obs.Trace.sp_end) with
                    | Obs.Trace.Phase, Some e ->
                        add sp.Obs.Trace.sp_name (e -. sp.Obs.Trace.sp_start)
                    | _ -> ())
                  (Obs.Trace.spans tr))
              !compile_traces;
            let pr = probe_layers ~seed p in
            let attr, counts =
              match (raw, t.s_verdict) with
              | Some raw, Some v -> (attribute w pr spans raw, op_counts raw v)
              | _ -> ([], [])
            in
            (u, t, pr, attr, counts))
          progs)
  in
  (* every time below is scaled by the traced op's speed factor *)
  let ops = float_of_int (List.length rows) in
  let u_s = sum (List.map (fun (u, _, _, _, _) -> ref_ms u /. 1e3) rows) in
  let t_s = sum (List.map (fun (_, t, _, _, _) -> ref_ms t /. 1e3) rows) in
  let attributed k =
    sum
      (List.map
         (fun (_, t, _, attr, _) ->
           t.s_speed *. Option.value ~default:0.0 (List.assoc_opt k attr))
         rows)
  in
  let all_attr = sum (List.map attributed time_layers) in
  let per_call_ms k =
    sum (List.map (fun (_, t, pr, _, _) -> t.s_speed *. self_time pr k) rows)
    /. ops *. 1e3
  in
  let alloc_mw k =
    sum (List.map (fun (_, _, pr, _, _) -> Hashtbl.find pr.alloc k) rows)
    /. ops /. 1e6
  in
  (* counts: one op per program, first pass *)
  let count k =
    sum
      (List.filter_map
         (fun (u, _, pr, _, counts) ->
           if u.s_pass <> 1 then None
           else
             match Hashtbl.find_opt pr.counts k with
             | Some n -> Some (float_of_int n)
             | None -> Some (Option.value ~default:0.0 (List.assoc_opt k counts)))
         rows)
  in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let counts =
    List.map
      (fun (k, unit) ->
        let v =
          match k with
          | "saturate.accept_ratio" ->
              ratio (count "saturate.accepted") (count "saturate.steps")
          | "saturate.compile_hit_ratio" ->
              let h = count "saturate.hits" in
              ratio h (h +. count "accrt.engine_compiles")
          | _ -> count k
        in
        (k, v, unit))
      count_layers
  in
  Printf.printf "%-24s %12s %8s\n" "layer" "ms/call" "share";
  List.iter
    (fun k ->
      Printf.printf "%-24s %12.4f %7.1f%%%s\n" k (per_call_ms k)
        (100.0 *. attributed k /. u_s)
        (match (w, k) with
        | Debug, _ | _, ("obs.json" | "core.session") -> ""
        | _ when attributed k = 0.0 -> ""
        | _ -> "  (estimate)"))
    time_layers;
  Printf.printf "%-24s %12s %7.1f%%  (traced op minus attributed)\n"
    "unattributed" "" (100.0 *. (t_s -. all_attr) /. u_s);
  Printf.printf
    "tracing overhead: traced %.3f ms - untraced %.3f ms = %.3f ms per op \
     (%.2f%%)\n"
    (t_s /. ops *. 1e3) (u_s /. ops *. 1e3)
    ((t_s -. u_s) /. ops *. 1e3)
    (100.0 *. (t_s -. u_s) /. u_s);
  List.iter (fun (n, v, u) -> Printf.printf "%-24s %.6f %s\n" n v u) counts;
  let samples = List.concat_map (fun (u, t, _, _, _) -> [ u; t ]) rows in
  ( samples,
    List.concat_map
      (fun k ->
        [ (k ^ "_ms", per_call_ms k, "ms");
          (k ^ "_share", attributed k /. u_s, "ratio") ])
      time_layers
    @ [ ("accrt.reference_alloc_mw", alloc_mw "accrt.reference", "Mw");
        ("accrt.run_alloc_mw", alloc_mw "accrt.run_tree", "Mw") ]
    @ counts
    @ [ ("trace.op_untraced_ms", u_s /. ops *. 1e3, "ms");
        ("trace.op_traced_ms", t_s /. ops *. 1e3, "ms");
        ("trace.overhead_ms", (t_s -. u_s) /. ops *. 1e3, "ms");
        ("trace.overhead_share", (t_s -. u_s) /. u_s, "ratio");
        ("trace.unattributed_ms", (t_s -. all_attr) /. ops *. 1e3, "ms");
        ("trace.unattributed_share", (t_s -. all_attr) /. u_s, "ratio") ] )

let () =
  let workload = ref "" and seed = ref None and seconds = ref 0 in
  let trace = ref (-1) in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "debug|session-4dev|saturate");
      ("--seed", Arg.Int (fun n -> seed := Some n), "N  input seed");
      ("--seconds", Arg.Set_int seconds, "S  measured time");
      ("--trace", Arg.Set_int trace, "0|1  per-layer run") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w, seed =
    match (List.assoc_opt !workload workloads, !seed) with
    | Some w, Some seed when !seconds >= 1 && (!trace = 0 || !trace = 1) ->
        (w, seed)
    | _ ->
        prerr_endline usage;
        exit 2
  in
  let seconds = float_of_int !seconds in
  (* Set-up repeats so that its median is steady; the last one is used. *)
  let setups = List.init 5 (fun _ -> calibrated (fun () -> setup w ~seed)) in
  let progs = (fun (p, _, _, _) -> p) (List.nth setups 4) in
  let setup_s =
    median (List.map (fun (_, dt, _, speed) -> dt *. speed) setups)
  in
  Printf.printf "workload %s, seed %d, order %s\n" !workload seed
    (String.concat "," (List.map name progs));
  (* Warm-up on the smallest program, untimed. *)
  ignore (run_op w untraced ~seed ~pass:0 (List.find (fun p -> name p = "EP") progs));
  Hashtbl.reset signatures;
  let samples, metrics =
    if !trace = 1 then traced_run w ~seed ~seconds progs
    else begin
      let samples =
        passes ~seconds (fun pass ->
            List.map (fun p -> fst (run_op w untraced ~seed ~pass p)) progs)
      in
      print_signatures samples;
      (samples, report ~setup_s samples)
    end
  in
  let failed = List.length (List.filter (fun s -> s.s_errors <> []) samples) in
  let attempted = List.length samples in
  if !trace = 0 then
    List.iter (fun (n, v, u) -> Printf.printf "%-22s %.6f %s\n" n v u) metrics;
  Printf.printf "%-22s %.6f (%d of %d ops)\n" "ops_failed_ratio"
    (float_of_int failed /. float_of_int attempted) failed attempted;
  if failed > 0 then
    Fmt.epr "perfbench: %d of %d ops FAILED their known answer@." failed
      attempted;
  print_result ~correct:(failed = 0) ~attempted ~failed metrics
