(* sintra-lint: the repo's protocol-safety static analysis pass.

     sintra_lint [--format text|json] [--config FILE] [--budget SEC]
                 [--rules] [DIR-or-FILE ...]        default roots: lib bin

   Line rules (L1-L5) and semantic rules (S1-S7) run together; findings
   are filtered through the inline allow directives and then through the
   .sintra-lint policy file (allow entries and count-based baselines).

   Exit status: 0 clean (possibly with policy-suppressed findings), 1 new
   findings, 2 usage/IO error, 3 wall-clock budget exceeded.  Run as part
   of `dune runtest` (and `dune build @lint`), so protocol-safety
   regressions fail the build. *)

let usage () =
  print_endline
    "usage: sintra_lint [--format text|json] [--config FILE] [--budget SEC] \
     [--rules] [DIR-or-FILE ...]   (default roots: lib bin)";
  print_endline "";
  print_endline "rules:";
  List.iter
    (fun (name, descr) -> Printf.printf "  %-16s %s\n" name descr)
    Lint.rule_names;
  print_endline "";
  print_endline "suppress a finding with: (* lint: allow <rule> -- reason *)";
  print_endline "or a policy entry in .sintra-lint: allow|baseline <rule> <path> [count]"

let bad_usage (msg : string) : 'a =
  Printf.eprintf "sintra_lint: %s (try --help)\n" msg;
  exit 2

let () =
  let args = match Array.to_list Sys.argv with [] -> [] | _ :: rest -> rest in
  if List.mem "--help" args || List.mem "--rules" args then usage ()
  else begin
    let format = ref "text" in
    let config = ref None in
    let budget = ref None in
    let roots = ref [] in
    let rec parse = function
      | [] -> ()
      | "--format" :: v :: rest ->
        if v <> "text" && v <> "json" then bad_usage ("bad --format " ^ v);
        format := v;
        parse rest
      | "--config" :: v :: rest -> config := Some v; parse rest
      | "--budget" :: v :: rest ->
        (match float_of_string_opt v with
         | Some s when s > 0.0 -> budget := Some s
         | _ -> bad_usage ("bad --budget " ^ v));
        parse rest
      | [ ("--format" | "--config" | "--budget") as flag ] ->
        bad_usage (flag ^ " needs a value")
      | arg :: _ when String.length arg > 1 && arg.[0] = '-' ->
        bad_usage ("unknown flag " ^ arg)
      | arg :: rest -> roots := arg :: !roots; parse rest
    in
    parse args;
    let roots =
      match List.rev !roots with [] -> [ "lib"; "bin" ] | rs -> rs
    in
    let missing = List.filter (fun r -> not (Sys.file_exists r)) roots in
    if missing <> [] then begin
      List.iter (Printf.eprintf "sintra_lint: no such path: %s\n") missing;
      exit 2
    end;
    let policy =
      match !config with
      | Some path ->
        (match Lint.Baseline.load path with
         | Ok t -> t
         | Error e -> Printf.eprintf "sintra_lint: %s\n" e; exit 2)
      | None ->
        if Sys.file_exists ".sintra-lint" then
          match Lint.Baseline.load ".sintra-lint" with
          | Ok t -> t
          | Error e -> Printf.eprintf "sintra_lint: %s\n" e; exit 2
        else Lint.Baseline.empty
    in
    let t0 = Unix.gettimeofday () in
    let files = Lint.discover roots in
    let all = Lint.check_paths files in
    let findings, suppressed = Lint.Baseline.apply policy all in
    let elapsed = Unix.gettimeofday () -. t0 in
    let nfiles = List.length files in
    (match !format with
     | "json" ->
       print_endline (Lint.render_json ~files:nfiles ~suppressed findings)
     | _ ->
       List.iter (fun f -> print_endline (Lint.render f)) findings;
       List.iter
         (fun (rule, count) ->
           if count > 0 then Printf.printf "  %-16s %d\n" rule count)
         (Lint.per_rule findings);
       print_endline (Lint.summary ~suppressed ~files:nfiles findings);
       Printf.printf "sintra-lint: %d files in %.2fs%s\n" nfiles elapsed
         (match !budget with
          | Some b -> Printf.sprintf " (budget %.0fs)" b
          | None -> ""));
    let over_budget =
      match !budget with Some b -> elapsed > b | None -> false
    in
    if over_budget then begin
      Printf.eprintf "sintra_lint: wall-clock budget exceeded (%.2fs)\n"
        elapsed;
      exit 3
    end;
    if findings <> [] then exit 1
  end
