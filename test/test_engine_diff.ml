(* Differential engine equivalence: the closure-compiled engine must be
   observably *bit-identical* to the tree walker — same outputs (to the
   bit), same [ops] accounting, same trace counters (minus the engine's
   own [engine_*] compile counters), same coherence reports, and same
   verification verdicts — across the full twelve-benchmark suite, plus a
   fault-matrix slice exercising the resilient runtime under both
   engines.  This contract is what lets the wall-clock benchmark tier
   (and users) swap engines freely. *)

open Minic

let tree = Accrt.Engine.Tree
let compiled = Accrt.Engine.Compiled

(* Bitwise scalar identity: stricter than (=) on floats (distinguishes
   -0.0 from 0.0, identifies equal NaNs). *)
let scalar_bits = function
  | Accrt.Value.Int n -> (0, Int64.of_int n)
  | Accrt.Value.Flt x -> (1, Int64.bits_of_float x)

let binding_identical b1 b2 =
  match (b1, b2) with
  | Some (Accrt.Value.Scalar c1), Some (Accrt.Value.Scalar c2) ->
      scalar_bits c1.Accrt.Value.v = scalar_bits c2.Accrt.Value.v
  | Some (Accrt.Value.Array { buf = Some a1; _ }),
    Some (Accrt.Value.Array { buf = Some a2; _ }) ->
      Gpusim.Buf.equal a1 a2
  | Some (Accrt.Value.Array { buf = None; _ }),
    Some (Accrt.Value.Array { buf = None; _ })
  | None, None ->
      true
  | _ -> false

let check_outputs what env1 env2 outputs =
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (Fmt.str "%s: output '%s' bit-identical" what name)
        true
        (binding_identical (Accrt.Value.lookup env1 name)
           (Accrt.Value.lookup env2 name)))
    outputs

(* The engine's own compile counters are the one intentional observable
   difference; everything else must agree exactly. *)
let is_engine_counter (n, _) =
  String.length n >= 7 && String.sub n 0 7 = "engine_"

let counters tr =
  Obs.Trace.counters tr
  |> List.filter (fun c -> not (is_engine_counter c))
  |> List.sort compare

let stats_tuple (s : Accrt.Resilience.stats) =
  ( s.Accrt.Resilience.retries,
    s.Accrt.Resilience.retransfers,
    s.Accrt.Resilience.reexecs,
    s.Accrt.Resilience.fallbacks,
    s.Accrt.Resilience.verified,
    s.Accrt.Resilience.unrecovered,
    s.Accrt.Resilience.device_lost )

let diff_variant (b : Suite.Bench_def.t) variant src =
  let what = Fmt.str "%s/%s" b.name variant in
  let prog = Parser.parse_string ~file:b.name src in
  (* 1. Sequential reference: tree walker vs compiled engine. *)
  let rt = Accrt.Eval.run_reference prog in
  let rc = Accrt.Compile.reference ~engine:compiled prog in
  Alcotest.(check int)
    (what ^ ": reference ops identical")
    rt.Accrt.Eval.ops rc.Accrt.Eval.ops;
  check_outputs (what ^ " reference") rt.Accrt.Eval.env rc.Accrt.Eval.env
    b.outputs;
  (* 2. Translated-program interpreter, uninstrumented. *)
  let tenv = Typecheck.check prog in
  let tp = Codegen.Translate.translate tenv prog in
  let run engine =
    let tr = Obs.Trace.create () in
    let o = Accrt.Interp.run ~coherence:false ~engine ~seed:42 ~obs:tr tp in
    (o, tr)
  in
  let ot, trt = run tree in
  let oc, trc = run compiled in
  Alcotest.(check int)
    (what ^ ": interpreter ops identical")
    ot.Accrt.Interp.ctx.Accrt.Eval.ops oc.Accrt.Interp.ctx.Accrt.Eval.ops;
  check_outputs (what ^ " interpreter") ot.Accrt.Interp.ctx.Accrt.Eval.env
    oc.Accrt.Interp.ctx.Accrt.Eval.env b.outputs;
  Alcotest.(check bool)
    (what ^ ": trace counters identical (sans engine_*)")
    true
    (counters trt = counters trc);
  (* 3. Instrumented run: the coherence verdicts must agree exactly. *)
  let ti = Codegen.Checkgen.instrument tp in
  let oi_t = Accrt.Interp.run ~coherence:true ~engine:tree ~seed:42 ti in
  let oi_c = Accrt.Interp.run ~coherence:true ~engine:compiled ~seed:42 ti in
  check_outputs (what ^ " instrumented")
    oi_t.Accrt.Interp.ctx.Accrt.Eval.env oi_c.Accrt.Interp.ctx.Accrt.Eval.env
    b.outputs;
  Alcotest.(check bool)
    (what ^ ": coherence reports identical")
    true
    (Accrt.Interp.reports oi_t = Accrt.Interp.reports oi_c)

let bench_case (b : Suite.Bench_def.t) =
  Alcotest.test_case b.name `Quick (fun () ->
      diff_variant b "unopt" b.source;
      diff_variant b "opt" b.optimized)

(* A one-member device set never shards, so the schedule cannot reach
   it: [~devices:1] under either schedule must be observably
   bit-identical to the default run — outputs, [ops] accounting, trace
   counters, the simulated clock, the per-directive profile document,
   and the Chrome trace — under both engines. *)
let profile_categories =
  List.map Gpusim.Metrics.category_name Gpusim.Metrics.all_categories

let diff_devices1 (b : Suite.Bench_def.t) =
  let prog = Parser.parse_string ~file:b.name b.source in
  let tenv = Typecheck.check prog in
  let tp = Codegen.Translate.translate tenv prog in
  List.iter
    (fun engine ->
      let run ?devices ?schedule () =
        let tr = Obs.Trace.create () in
        let o =
          Accrt.Interp.run ~coherence:false ~engine ~seed:42 ~trace:true
            ?devices ?schedule ~obs:tr tp
        in
        (o, tr)
      in
      let profile_json tr =
        Obs.Profile.to_json ~name:b.name ~seed:42
          (Obs.Profile.of_trace ~categories:profile_categories tr)
      in
      let chrome (o : Accrt.Interp.outcome) =
        Gpusim.Timeline.to_chrome_json
          o.Accrt.Interp.device.Gpusim.Device.timeline
      in
      let o0, tr0 = run () in
      List.iter
        (fun schedule ->
          let o1, tr1 = run ~devices:1 ~schedule () in
          let what =
            Fmt.str "%s/%s/%s --devices 1" b.name (Accrt.Engine.to_string engine)
              (Gpusim.Device_set.schedule_name schedule)
          in
          check_outputs what o0.Accrt.Interp.ctx.Accrt.Eval.env
            o1.Accrt.Interp.ctx.Accrt.Eval.env b.outputs;
          Alcotest.(check int)
            (what ^ ": ops identical")
            o0.Accrt.Interp.ctx.Accrt.Eval.ops
            o1.Accrt.Interp.ctx.Accrt.Eval.ops;
          Alcotest.(check bool)
            (what ^ ": trace counters identical")
            true
            (counters tr0 = counters tr1);
          Alcotest.(check bool)
            (what ^ ": simulated clock identical")
            true
            (Int64.bits_of_float
               (Gpusim.Metrics.total_time (Accrt.Interp.metrics o0))
            = Int64.bits_of_float
                (Gpusim.Metrics.total_time (Accrt.Interp.metrics o1)));
          Alcotest.(check string)
            (what ^ ": profile document byte-identical")
            (profile_json tr0) (profile_json tr1);
          Alcotest.(check string)
            (what ^ ": chrome trace byte-identical")
            (chrome o0) (chrome o1))
        [ Gpusim.Device_set.Block; Gpusim.Device_set.Cyclic ];
      (* The data-movement ledger is a pure observer: attaching one to
         the same --devices 1 run must leave every observable unchanged
         (outputs, ops, counters, clock, profile, Chrome trace) while
         its counted totals conserve the DMA accumulators exactly. *)
      let lg = Obs.Ledger.create ~devices:1 ~schedule:"block" in
      let trl = Obs.Trace.create () in
      let ol =
        Accrt.Interp.run ~coherence:false ~engine ~seed:42 ~trace:true
          ~devices:1 ~schedule:Gpusim.Device_set.Block ~ledger:lg ~obs:trl
          tp
      in
      let what =
        Fmt.str "%s/%s --devices 1 +ledger" b.name
          (Accrt.Engine.to_string engine)
      in
      check_outputs what o0.Accrt.Interp.ctx.Accrt.Eval.env
        ol.Accrt.Interp.ctx.Accrt.Eval.env b.outputs;
      Alcotest.(check int)
        (what ^ ": ops identical")
        o0.Accrt.Interp.ctx.Accrt.Eval.ops
        ol.Accrt.Interp.ctx.Accrt.Eval.ops;
      Alcotest.(check bool)
        (what ^ ": trace counters identical")
        true
        (counters tr0 = counters trl);
      Alcotest.(check bool)
        (what ^ ": simulated clock identical")
        true
        (Int64.bits_of_float
           (Gpusim.Metrics.total_time (Accrt.Interp.metrics o0))
        = Int64.bits_of_float
            (Gpusim.Metrics.total_time (Accrt.Interp.metrics ol)));
      Alcotest.(check string)
        (what ^ ": profile document byte-identical")
        (profile_json tr0) (profile_json trl);
      Alcotest.(check string)
        (what ^ ": chrome trace byte-identical")
        (chrome o0) (chrome ol);
      let mh, md =
        Array.fold_left
          (fun (h, d) dev ->
            let m = dev.Gpusim.Device.metrics in
            (h + m.Gpusim.Metrics.bytes_h2d, d + m.Gpusim.Metrics.bytes_d2h))
          (0, 0) ol.Accrt.Interp.devset.Gpusim.Device_set.devices
      in
      Alcotest.(check (pair int int))
        (what ^ ": ledger conserves the DMA accumulators")
        (mh, md) (Obs.Ledger.totals lg))
    [ tree; compiled ]

let devices1_case (b : Suite.Bench_def.t) =
  Alcotest.test_case (b.name ^ " --devices 1") `Quick (fun () ->
      diff_devices1 b)

(* Sharded launches follow the engine too: at 2 and 4 devices, under both
   schedules, the compiled shard runner must match the tree shard runner
   on outputs (to the bit), [ops], trace counters (sans [engine_*]),
   coherence reports, ledger entries and the per-ordinal imbalance
   weights.  Ledger entries are compared without their enclosing span id:
   the compiled engine's [compile-kernel] spans shift the span numbering,
   and nothing else. *)
let engine_counters tr = List.filter is_engine_counter (Obs.Trace.counters tr)

(* Every name bound in the final host environment: sharded launches
   commit private, raced and extra-induction scalars too, which the
   benchmarks' designated outputs do not cover. *)
let host_names (env : Accrt.Value.t) =
  List.concat_map
    (fun fr -> Hashtbl.fold (fun n _ acc -> n :: acc) fr [])
    (env.Accrt.Value.globals :: env.Accrt.Value.frames)
  |> List.sort_uniq compare

let diff_sharded what_prog src =
  let prog = Parser.parse_string ~file:what_prog src in
  let tenv = Typecheck.check prog in
  let ti = Codegen.Checkgen.instrument (Codegen.Translate.translate tenv prog) in
  List.iter
    (fun (devices, schedule) ->
      let what =
        Fmt.str "%s --devices %d --schedule %s" what_prog devices
          (Gpusim.Device_set.schedule_name schedule)
      in
      let run engine =
        let tr = Obs.Trace.create () in
        let lg =
          Obs.Ledger.create ~devices
            ~schedule:(Gpusim.Device_set.schedule_name schedule)
        in
        let o =
          Accrt.Interp.run ~coherence:true ~engine ~seed:42 ~devices ~schedule
            ~obs:tr ~ledger:lg ti
        in
        (o, tr, lg)
      in
      let ot, trt, lgt = run tree in
      let oc, trc, lgc = run compiled in
      let et = ot.Accrt.Interp.ctx.Accrt.Eval.env in
      let ec = oc.Accrt.Interp.ctx.Accrt.Eval.env in
      Alcotest.(check (list string))
        (what ^ ": host names identical")
        (host_names et) (host_names ec);
      check_outputs what et ec (host_names et);
      Alcotest.(check int)
        (what ^ ": interpreter ops identical")
        ot.Accrt.Interp.ctx.Accrt.Eval.ops oc.Accrt.Interp.ctx.Accrt.Eval.ops;
      Alcotest.(check bool)
        (what ^ ": trace counters identical (sans engine_*)")
        true
        (counters trt = counters trc);
      Alcotest.(check bool)
        (what ^ ": coherence reports identical")
        true
        (Accrt.Interp.reports ot = Accrt.Interp.reports oc);
      let entries lg =
        List.map
          (fun e -> { e with Obs.Ledger.e_span = 0 })
          (Obs.Ledger.entries lg)
      in
      Alcotest.(check bool)
        (what ^ ": ledger entries identical")
        true
        (entries lgt = entries lgc);
      let launches (o : Accrt.Interp.outcome) =
        Option.map Obs.Imbalance.launches o.Accrt.Interp.imbalance
      in
      Alcotest.(check bool)
        (what ^ ": imbalance records (per-ordinal weights) identical")
        true
        (launches ot = launches oc);
      (* Every kernel launch went through the compiled engine on the
         compiled run — one cache lookup per whole launch, one per shard
         of a sharded launch — and none did on the tree run. *)
      let launched =
        Option.value ~default:0
          (List.assoc_opt "launches" (Obs.Trace.counters trc))
      in
      let sharded = Option.value ~default:[] (launches oc) in
      Alcotest.(check int)
        (what ^ ": every compiled launch and shard compiled or hit the cache")
        (List.fold_left
           (fun a l -> a + l.Obs.Imbalance.l_parts - 1)
           launched sharded)
        (List.fold_left (fun a (_, v) -> a + v) 0 (engine_counters trc));
      Alcotest.(check int)
        (what ^ ": tree run never touches the compiled engine")
        0
        (List.length (engine_counters trt)))
    [ (2, Gpusim.Device_set.Block); (2, Gpusim.Device_set.Cyclic);
      (4, Gpusim.Device_set.Block); (4, Gpusim.Device_set.Cyclic) ]

let sharded_case (b : Suite.Bench_def.t) =
  Alcotest.test_case (b.name ^ " --devices 2,4") `Quick (fun () ->
      diff_sharded (b.name ^ "/unopt") b.source;
      diff_sharded (b.name ^ "/opt") b.optimized)

(* The suite's sharded kernels commit no extra-induction, auto-private
   or raced scalar the host reads back; this one commits all three ([j],
   [last], and the active race [flip]), next to a private and two
   reductions, over an iteration space no device count divides. *)
let committed_scalars_src =
  "int main() { int n = 37; int m = 5; float a[n]; float sum = 0.0;\n\
  \   float mx = 0.0; float t; int j; int last = 0; int flip = 3;\n\
  \   for (int i = 0; i < n; i++) { a[i] = float(i) * 0.5; }\n\
  \   #pragma acc data copy(a)\n\
  \   {\n\
  \   #pragma acc kernels loop private(t) reduction(+:sum) reduction(max:mx)\n\
  \   for (int i = 0; i < n; i++) {\n\
  \     t = 0.0;\n\
  \     for (j = 0; j < m; j++) { t = t + a[i] * float(j); }\n\
  \     a[i] = t; sum = sum + t; mx = max(mx, t); last = i;\n\
  \     flip = i - flip;\n\
  \   }\n\
  \   }\n\
  \   return 0; }"

(* Verification verdicts — including injected faults — are engine-free. *)
let test_verify_diff () =
  List.iter
    (fun name ->
      let b = Option.get (Suite.Registry.find name) in
      let prog = Parser.parse_string ~file:b.name b.source in
      let strip (r : Openarc_core.Kernel_verify.kernel_report) =
        ( r.Openarc_core.Kernel_verify.kr_kernel.Codegen.Tprog.k_name,
          r.kr_occurrences, r.kr_mismatches, r.kr_assertion_failures )
      in
      let vt =
        Openarc_core.Kernel_verify.verify
          ~opts:Codegen.Options.fault_injection ~engine:tree prog
      in
      let vc =
        Openarc_core.Kernel_verify.verify
          ~opts:Codegen.Options.fault_injection ~engine:compiled prog
      in
      Alcotest.(check bool)
        (name ^ ": verification verdicts identical")
        true
        (List.map strip vt.Openarc_core.Kernel_verify.reports
        = List.map strip vc.Openarc_core.Kernel_verify.reports);
      Alcotest.(check int)
        (name ^ ": sequential ops identical")
        vt.Openarc_core.Kernel_verify.sequential_ops
        vc.Openarc_core.Kernel_verify.sequential_ops)
    [ "JACOBI"; "EP"; "BACKPROP" ]

(* Fault-matrix slice: the resilient runtime (retry, re-execution with
   validation, CPU fallback, host mode) recovers identically under both
   engines. *)
let test_fault_diff () =
  let b = Option.get (Suite.Registry.find "JACOBI") in
  let prog = Parser.parse_string ~file:b.name b.source in
  let tenv = Typecheck.check prog in
  let tp = Codegen.Translate.translate tenv prog in
  List.iter
    (fun kind ->
      let run engine =
        let plan =
          Gpusim.Fault_plan.create ~seed:7
            [ Gpusim.Fault_plan.mk_rule ~prob:0.5 kind ]
        in
        Accrt.Interp.run ~coherence:false ~engine ~seed:42 ~plan
          ~resilience:Accrt.Resilience.full tp
      in
      let ot = run tree in
      let oc = run compiled in
      let what =
        Fmt.str "JACOBI under %s" (Gpusim.Fault_plan.kind_name kind)
      in
      check_outputs what ot.Accrt.Interp.ctx.Accrt.Eval.env
        oc.Accrt.Interp.ctx.Accrt.Eval.env b.outputs;
      Alcotest.(check int) (what ^ ": ops identical")
        ot.Accrt.Interp.ctx.Accrt.Eval.ops
        oc.Accrt.Interp.ctx.Accrt.Eval.ops;
      Alcotest.(check bool)
        (what ^ ": recovery stats identical")
        true
        (stats_tuple ot.Accrt.Interp.resilience
        = stats_tuple oc.Accrt.Interp.resilience))
    [ Gpusim.Fault_plan.Xfer_fail; Gpusim.Fault_plan.Launch_fail;
      Gpusim.Fault_plan.Bit_flip; Gpusim.Fault_plan.Device_lost ]

(* 4-device failover slice: a member lost at the first kernel's launch
   gate has its shard re-executed on a survivor — on the run's engine —
   and the recovery (validated on the tree walker under either engine)
   must account identically. *)
let test_failover_diff () =
  List.iter
    (fun name ->
      let b = Option.get (Suite.Registry.find name) in
      let prog = Parser.parse_string ~file:b.name b.source in
      let tenv = Typecheck.check prog in
      let tp = Codegen.Translate.translate tenv prog in
      let target = tp.Codegen.Tprog.kernels.(0).Codegen.Tprog.k_name in
      List.iter
        (fun lost ->
          let run engine =
            let plan =
              Gpusim.Fault_plan.create ~seed:7
                [ Gpusim.Fault_plan.mk_rule ~target ~count:1 ~dev:lost
                    Gpusim.Fault_plan.Device_lost ]
            in
            Accrt.Interp.run ~coherence:false ~engine ~seed:42 ~devices:4
              ~plan ~resilience:Accrt.Resilience.full tp
          in
          let ot = run tree in
          let oc = run compiled in
          let what = Fmt.str "%s, member %d lost at 4 devices" name lost in
          check_outputs what ot.Accrt.Interp.ctx.Accrt.Eval.env
            oc.Accrt.Interp.ctx.Accrt.Eval.env b.outputs;
          Alcotest.(check int) (what ^ ": ops identical")
            ot.Accrt.Interp.ctx.Accrt.Eval.ops
            oc.Accrt.Interp.ctx.Accrt.Eval.ops;
          let st = ot.Accrt.Interp.resilience in
          Alcotest.(check bool) (what ^ ": a shard failed over") true
            (st.Accrt.Resilience.failovers >= 1);
          let full (s : Accrt.Resilience.stats) =
            ( stats_tuple s,
              (s.Accrt.Resilience.failovers, s.Accrt.Resilience.devices_lost),
              Accrt.Resilience.log_entries s )
          in
          Alcotest.(check bool)
            (what ^ ": recovery stats identical")
            true
            (full st = full oc.Accrt.Interp.resilience))
        [ 1; 3 ])
    [ "JACOBI"; "EP" ]

(* Host-fragment boundaries.  The compiled engine meets the name-addressed
   environment only where a host fragment binds its free names (entry),
   publishes its root-scope declarations (end), lets a statement hook run
   (hook), and where a user call binds its callee's globals.  One program
   per boundary, compared on the sequential reference, on kernel
   verification and on the instrumented interpreter. *)

let boundary_programs =
  [ ( "hook frame",
      (* The region reads [s], declared in an enclosing [for] body of
         [main], and the array [a] through the pointer [p]: the
         verification hook sees both only through the hook frame. *)
      "int main() { int n = 16; float a[n]; float b[n]; float *p = a;
      \   for (int i = 0; i < n; i++) { a[i] = float(i); b[i] = 0.0; }
      \   for (int t = 0; t < 3; t++) {
      \     float s = float(t) + 0.5;
      \     #pragma acc parallel loop copyin(a) copy(b)
      \     for (int i = 0; i < n; i++) { b[i] = b[i] + p[i] * s; }
      \   }
      \   return 0; }" );
    ( "pointer rebound in a host leaf",
      (* [p = b] runs in one host leaf; a later leaf and
         [Interp.host_array] read [b] through [p]. *)
      "int main() { int n = 8; float a[n]; float b[n]; float *p = a;
      \   for (int i = 0; i < n; i++) { a[i] = 1.0; b[i] = 5.0; }
      \   #pragma acc parallel loop copy(a)
      \   for (int i = 0; i < n; i++) { a[i] = a[i] + 1.0; }
      \   p = b;
      \   float x = p[2] + 1.0;
      \   return 0; }" );
    ( "callee writes a global",
      "float total = 0.0;
       int count;
       void add(float v) { total = total + v; count = count + 1; }
       int main() { int n = 8; float a[n];
      \   for (int i = 0; i < n; i++) { a[i] = float(i); }
      \   #pragma acc parallel loop copy(a)
      \   for (int i = 0; i < n; i++) { a[i] = a[i] * 2.0; }
      \   for (int i = 0; i < n; i++) { add(a[i]); }
      \   return 0; }" );
    ( "early return",
      (* [main]'s top-level names must reach the caller although [main]
         leaves by [return] before its end. *)
      "int main() { int n = 8; float a[n];
      \   for (int i = 0; i < n; i++) { a[i] = float(i); }
      \   #pragma acc parallel loop copy(a)
      \   for (int i = 0; i < n; i++) { a[i] = a[i] + 3.0; }
      \   float r = a[3];
      \   if (r > 0.0) { return 1; }
      \   float never = 1.0;
      \   return 0; }" ) ]

let reference_names (ctx : Accrt.Eval.ctx) = host_names ctx.Accrt.Eval.env

let diff_boundary (what, src) =
  let prog = Parser.parse_string ~file:what src in
  (* Sequential reference. *)
  let rt = Accrt.Compile.reference ~engine:tree prog in
  let rc = Accrt.Compile.reference ~engine:compiled prog in
  Alcotest.(check int) (what ^ ": reference ops identical")
    rt.Accrt.Eval.ops rc.Accrt.Eval.ops;
  Alcotest.(check (list string)) (what ^ ": reference names identical")
    (reference_names rt) (reference_names rc);
  check_outputs (what ^ " reference") rt.Accrt.Eval.env rc.Accrt.Eval.env
    (reference_names rt);
  (* Kernel verification: the hooked reference run. *)
  let verify engine = Openarc_core.Kernel_verify.verify ~engine prog in
  let vt = verify tree and vc = verify compiled in
  let strip (r : Openarc_core.Kernel_verify.kernel_report) =
    ( r.Openarc_core.Kernel_verify.kr_kernel.Codegen.Tprog.k_name,
      r.kr_occurrences, r.kr_mismatches, r.kr_assertion_failures )
  in
  Alcotest.(check bool) (what ^ ": verification reports identical") true
    (List.map strip vt.Openarc_core.Kernel_verify.reports
    = List.map strip vc.Openarc_core.Kernel_verify.reports);
  Alcotest.(check int) (what ^ ": verification sequential ops identical")
    vt.Openarc_core.Kernel_verify.sequential_ops
    vc.Openarc_core.Kernel_verify.sequential_ops;
  let totals (v : Openarc_core.Kernel_verify.t) =
    let m = v.Openarc_core.Kernel_verify.metrics in
    ( List.map
        (fun c -> Int64.bits_of_float (Gpusim.Metrics.time_of m c))
        Gpusim.Metrics.all_categories,
      Gpusim.Metrics.total_bytes m )
  in
  Alcotest.(check bool) (what ^ ": verification metrics identical") true
    (totals vt = totals vc);
  (* Instrumented interpreter: host leaves run as separate fragments. *)
  let tenv = Typecheck.check prog in
  let ti = Codegen.Checkgen.instrument (Codegen.Translate.translate tenv prog) in
  let run engine = Accrt.Interp.run ~coherence:true ~engine ~seed:42 ti in
  let ot = run tree and oc = run compiled in
  let et = ot.Accrt.Interp.ctx.Accrt.Eval.env in
  let ec = oc.Accrt.Interp.ctx.Accrt.Eval.env in
  Alcotest.(check (list string)) (what ^ ": interpreter names identical")
    (host_names et) (host_names ec);
  check_outputs (what ^ " interpreter") et ec (host_names et);
  Alcotest.(check int) (what ^ ": interpreter ops identical")
    ot.Accrt.Interp.ctx.Accrt.Eval.ops oc.Accrt.Interp.ctx.Accrt.Eval.ops;
  Alcotest.(check bool) (what ^ ": coherence reports identical") true
    (Accrt.Interp.reports ot = Accrt.Interp.reports oc);
  (* A pointer reaches its current target by name after the run. *)
  if List.mem "p" (host_names et) then
    Alcotest.(check bool) (what ^ ": host_array through the pointer") true
      (Gpusim.Buf.equal (Accrt.Interp.host_array ot "p")
         (Accrt.Interp.host_array oc "p"))

(* Name errors the front end would reject still reach the reference run
   of an unchecked program; both engines must fail with byte-equal
   messages, and a bad name on a path never taken must not fail. *)
let name_error_programs =
  [ "int main() { int x = 1; y = x + 2; return 0; }";
    "int main() { int x = zz + 1; return 0; }";
    "int main() { float a[4]; int x = a + 1; return 0; }";
    "int main() { int s = 0; s[1] = 2; return 0; }";
    "int main() { int s = 0; float *q = s; return 0; }";
    "float g[4];
int f() { return g + 1; }
int main() { return f(); }";
    "int h;
void f() { h[0] = 1; }
int main() { f(); return 0; }";
    "void f() { w = 1; }
int main() { f(); return 0; }";
    "int main() { int x = 0; if (x > 0) { x = zz; } float a[2];
    \  if (x > 0) { x = a; } return x; }" ]

let test_name_errors () =
  List.iter
    (fun src ->
      let prog = Parser.parse_string ~file:"names" src in
      let outcome engine =
        match Accrt.Compile.reference ~engine prog with
        | ctx -> Ok ctx.Accrt.Eval.ops
        | exception Accrt.Value.Runtime_error m -> Error m
      in
      Alcotest.(check (result int string))
        (Fmt.str "%S: same outcome" src)
        (outcome tree) (outcome compiled))
    name_error_programs

let tests =
  List.map bench_case Suite.Registry.all
  @ List.map devices1_case Suite.Registry.all
  @ List.map sharded_case Suite.Registry.all
  @ [ Alcotest.test_case "committed scalars --devices 2,4" `Quick (fun () ->
          diff_sharded "committed-scalars" committed_scalars_src) ]
  @ [ Alcotest.test_case "verification verdicts" `Quick test_verify_diff;
      Alcotest.test_case "fault matrix" `Quick test_fault_diff;
      Alcotest.test_case "4-device failover" `Quick test_failover_diff ]
  @ List.map
      (fun ((what, _) as p) ->
        Alcotest.test_case ("boundary: " ^ what) `Quick (fun () ->
            diff_boundary p))
      boundary_programs
  @ [ Alcotest.test_case "boundary: name errors" `Quick test_name_errors ]
