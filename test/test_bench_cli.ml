(* Integration tests of the bench driver's sentinel subcommands: trend
   accumulation, regress against the committed baseline (byte-reproducible
   when clean, exit 1 with culprits under a seeded cost-model
   perturbation), the golden-tier smoke driver (pass, named drift, missing
   baseline), and the exit-2 usage convention. *)

let exe = "../bench/main.exe"

let baseline = "../BENCH_profile.json"

let available = Sys.file_exists exe && Sys.file_exists baseline

(* Separate stdout/stderr capture: the usage convention requires the
   diagnostics on stderr specifically.  With [dir], bench/main.exe runs with
   that directory as its working directory. *)
let run_cmd ?(env = "") ?dir args =
  let out = Filename.temp_file "bench_cli" ".out" in
  let err = Filename.temp_file "bench_cli" ".err" in
  let cd, exe =
    match dir with
    | None -> ("", exe)
    | Some d ->
        ( Fmt.str "cd %s && " (Filename.quote d),
          Filename.quote (Filename.concat (Sys.getcwd ()) exe) )
  in
  let cmd =
    Fmt.str "%s%s%s %s > %s 2> %s" cd
      (if env = "" then "" else env ^ " ")
      exe args (Filename.quote out) (Filename.quote err)
  in
  let code = Sys.command cmd in
  let read p =
    let ic = open_in_bin p in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove p;
    s
  in
  let o = read out and e = read err in
  (code, o, e)

let contains ~needle s =
  let n = String.length needle and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
  go 0

let test_unknown_subcommand () =
  if available then begin
    let code, out, err = run_cmd "frobnicate" in
    Alcotest.(check int) "unknown subcommand: exit 2" 2 code;
    Alcotest.(check string) "nothing on stdout" "" out;
    Alcotest.(check bool) "names the offender on stderr" true
      (contains ~needle:"unknown experiment 'frobnicate'" err);
    Alcotest.(check bool) "usage on stderr" true
      (contains ~needle:"usage: main.exe" err);
    Alcotest.(check bool) "usage lists the sentinel" true
      (contains ~needle:"regress" err)
  end

let test_unknown_flag () =
  if available then begin
    let code, _, err = run_cmd "regress --frobnicate yes" in
    Alcotest.(check int) "unknown flag: exit 2" 2 code;
    Alcotest.(check bool) "flag named on stderr" true
      (contains ~needle:"unknown option '--frobnicate'" err);
    let code, _, err = run_cmd "trend --out" in
    Alcotest.(check int) "missing value: exit 2" 2 code;
    Alcotest.(check bool) "missing value named" true
      (contains ~needle:"requires a value" err);
    let code, _, err = run_cmd "regress --benches nosuchbenchmark" in
    Alcotest.(check int) "unknown benchmark: exit 2" 2 code;
    Alcotest.(check bool) "benchmark named" true
      (contains ~needle:"unknown benchmark" err)
  end

let regress_args ?(extra = "") () =
  Fmt.str "regress --baseline %s --benches jacobi,ep,srad%s" baseline extra

let test_regress_clean () =
  if available then begin
    (* the committed baseline vs the current tree: exactly zero, twice *)
    let code1, out1, err1 = run_cmd (regress_args ()) in
    Alcotest.(check int) "clean regress: exit 0" 0 code1;
    Alcotest.(check string) "clean regress: quiet stderr" "" err1;
    Alcotest.(check bool) "all within tolerance" true
      (contains ~needle:"3/3 benchmark(s) within tolerance" out1);
    Alcotest.(check bool) "deltas are exactly zero" true
      (contains ~needle:"delta +0.000000000 s" out1);
    let code2, out2, _ = run_cmd (regress_args ()) in
    Alcotest.(check int) "second run: exit 0" 0 code2;
    Alcotest.(check string) "byte-reproducible report" out1 out2
  end

let test_regress_json () =
  if available then begin
    let json = Filename.temp_file "bench_regress" ".json" in
    let code, _, _ =
      run_cmd (regress_args ~extra:(" --json " ^ Filename.quote json) ())
    in
    Alcotest.(check int) "regress --json: exit 0" 0 code;
    let ic = open_in_bin json in
    let doc = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove json;
    let v = Json_check.parse doc in
    Alcotest.(check (option string)) "schema"
      (Some "openarc.obs.bench-regress")
      (Option.map Json_check.str_exn (Json_check.member "schema" v));
    Alcotest.(check (option string)) "status ok" (Some "ok")
      (Option.map Json_check.str_exn (Json_check.member "status" v));
    let rows =
      Json_check.arr_exn (Option.get (Json_check.member "benchmarks" v))
    in
    Alcotest.(check int) "three benchmarks" 3 (List.length rows);
    List.iter
      (fun rv ->
        Alcotest.(check (option string)) "row status ok" (Some "ok")
          (Option.map Json_check.str_exn (Json_check.member "status" rv));
        Alcotest.(check bool) "zero delta" true
          (Json_check.member "delta" rv = Some (Json_check.Num 0.0)))
      rows
  end

let test_regress_detects_seeded_regression () =
  if available then begin
    (* the seeded synthetic regression: scale the PCIe fixed latency 8x
       through the cost model's test-only hook; the sentinel must exit 1
       and attribute the blow-up to transfer time *)
    let json = Filename.temp_file "bench_regress" ".json" in
    let code, out, _ =
      run_cmd ~env:"OPENARC_COSTMODEL_PERTURB=8"
        (regress_args ~extra:(" --json " ^ Filename.quote json) ())
    in
    Alcotest.(check int) "seeded regression: exit 1" 1 code;
    Alcotest.(check bool) "flagged" true
      (contains ~needle:"REGRESSION" out);
    Alcotest.(check bool) "culprit directives named" true
      (contains ~needle:"culprit:" out);
    Alcotest.(check bool) "attributed to transfers" true
      (contains ~needle:"(Mem Transfer)" out);
    let ic = open_in_bin json in
    let doc = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove json;
    let v = Json_check.parse doc in
    Alcotest.(check (option string)) "json status regression"
      (Some "regression")
      (Option.map Json_check.str_exn (Json_check.member "status" v));
    let rows =
      Json_check.arr_exn (Option.get (Json_check.member "benchmarks" v))
    in
    List.iter
      (fun rv ->
        Alcotest.(check (option string)) "every row regressed"
          (Some "regression")
          (Option.map Json_check.str_exn (Json_check.member "status" rv));
        let culprits =
          Json_check.arr_exn (Option.get (Json_check.member "culprits" rv))
        in
        Alcotest.(check bool) "culprits recorded" true (culprits <> []))
      rows
  end

let test_trend_accumulates () =
  if available then begin
    let file = Filename.temp_file "bench_trend" ".jsonl" in
    Sys.remove file;
    let go label =
      let code, _, _ =
        run_cmd
          (Fmt.str "trend --out %s --benches jacobi --label %s"
             (Filename.quote file) label)
      in
      Alcotest.(check int) (label ^ ": exit 0") 0 code
    in
    go "first";
    go "second";
    let ic = open_in_bin file in
    let doc = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove file;
    let lines =
      List.filter (fun l -> l <> "") (String.split_on_char '\n' doc)
    in
    Alcotest.(check int) "two appended records" 2 (List.length lines);
    List.iteri
      (fun i line ->
        let v = Json_check.parse line in
        Alcotest.(check (option string))
          (Fmt.str "line %d schema" i)
          (Some "openarc.obs.bench-trend")
          (Option.map Json_check.str_exn (Json_check.member "schema" v));
        Alcotest.(check (option string))
          (Fmt.str "line %d name" i)
          (Some "JACOBI")
          (Option.map Json_check.str_exn (Json_check.member "name" v));
        Alcotest.(check (option string))
          (Fmt.str "line %d label" i)
          (Some (if i = 0 then "first" else "second"))
          (Option.map Json_check.str_exn (Json_check.member "label" v));
        Alcotest.(check bool)
          (Fmt.str "line %d carries counters" i)
          true
          (match Json_check.member "counters" v with
          | Some (Json_check.Obj kvs) -> List.mem_assoc "transfers" kvs
          | _ -> false))
      lines;
    (* identical runs produce identical records modulo the label *)
    match lines with
    | [ l1; l2 ] ->
        let strip l =
          Str.global_replace
            (Str.regexp "\"label\": \"[a-z]*\"")
            "\"label\": \"\"" l
        in
        Alcotest.(check string) "deterministic modulo label" (strip l1)
          (strip l2)
    | _ -> Alcotest.fail "expected two lines"
  end

let read_file p =
  let ic = open_in_bin p in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* Run [profile-smoke] in a fresh directory holding [doc] as its
   BENCH_profile.json (no file at all when [doc] is [None]). *)
let profile_smoke_in ?doc () =
  let dir = Filename.temp_file "bench_smoke" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let file = Filename.concat dir "BENCH_profile.json" in
  Option.iter
    (fun d ->
      let oc = open_out_bin file in
      output_string oc d;
      close_out oc)
    doc;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists file then Sys.remove file;
      Sys.rmdir dir)
    (fun () -> run_cmd ~dir "profile-smoke")

let test_smoke_committed_copy () =
  if available then begin
    let code, out, err = profile_smoke_in ~doc:(read_file baseline) () in
    Alcotest.(check int) "unmodified copy: exit 0" 0 code;
    Alcotest.(check string) "quiet stderr" "" err;
    Alcotest.(check bool) "subset byte-stable" true
      (contains ~needle:"profile smoke: 3/3 byte-stable" out)
  end

let test_smoke_names_drift () =
  if available then begin
    (* bump the first digit of JACOBI's "total" *)
    let doc = read_file baseline in
    let at = Str.search_forward (Str.regexp_string "\"JACOBI\"") doc 0 in
    let key = "\"total\": " in
    let i =
      Str.search_forward (Str.regexp_string key) doc at + String.length key
    in
    let drifted = Bytes.of_string doc in
    Bytes.set drifted i (if doc.[i] = '9' then '8' else '9');
    let code, out, err =
      profile_smoke_in ~doc:(Bytes.to_string drifted) ()
    in
    Alcotest.(check int) "drifted entry: exit 1" 1 code;
    Alcotest.(check bool) "stderr names the benchmark" true
      (contains ~needle:"JACOBI" err);
    Alcotest.(check bool) "stderr names the file" true
      (contains ~needle:"BENCH_profile.json" err);
    Alcotest.(check bool) "other entries still match" true
      (contains ~needle:"SRAD" out && contains ~needle:"matches baseline" out)
  end

let test_smoke_missing_file () =
  if available then begin
    let code, _, err = profile_smoke_in () in
    Alcotest.(check int) "missing baseline: exit 1" 1 code;
    Alcotest.(check bool) "regeneration hint" true
      (contains
         ~needle:"missing BENCH_profile.json (run 'bench/main.exe profile'"
         err)
  end

let tests =
  [ Alcotest.test_case "unknown subcommand" `Quick test_unknown_subcommand;
    Alcotest.test_case "unknown flag" `Quick test_unknown_flag;
    Alcotest.test_case "regress clean" `Quick test_regress_clean;
    Alcotest.test_case "regress json" `Quick test_regress_json;
    Alcotest.test_case "regress detects seeded regression" `Quick
      test_regress_detects_seeded_regression;
    Alcotest.test_case "trend accumulates" `Quick test_trend_accumulates;
    Alcotest.test_case "smoke passes on committed copy" `Quick
      test_smoke_committed_copy;
    Alcotest.test_case "smoke names drifted entry" `Quick
      test_smoke_names_drift;
    Alcotest.test_case "smoke missing baseline" `Quick
      test_smoke_missing_file ]
