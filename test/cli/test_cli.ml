(* No command exits with cmdliner's crash code 125. The file commands'
   typed fault: bad source, a run-time error, runaway recursion, an
   unknown [--function] and a malformed saved profile each print one
   "FILE:LINE:COL: message" line (a fault with no source position:
   "FILE: message") and exit with the degraded code 3 that [record]
   uses. An unknown experiment or workload class is a usage error
   (cmdliner's 124, listing the valid values), and a path unusable at
   startup prints "PATH: message" and exits 2. The working directory is
   the build root, which holds bin/main.exe. *)

let exe = "bin/main.exe"

(* A fresh file holding [text]. *)
let temp_file suffix text =
  let path = Filename.temp_file "cli" suffix in
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  path

(* Run [exe args]; its exit code and stderr. *)
let spawn args =
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let argv = Array.of_list (exe :: args) in
  let pid = Unix.create_process exe argv Unix.stdin null err_w in
  Unix.close err_w;
  Unix.close null;
  let err = In_channel.input_all (Unix.in_channel_of_descr err_r) in
  Unix.close err_r;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED c -> (c, err)
  | _ -> (-1, err)

let check name cmd src ~expect =
  let path = temp_file ".c" src in
  let code, err = spawn [ cmd; path ] in
  Sys.remove path;
  Alcotest.(check int) (name ^ ": exit code") 3 code;
  Alcotest.(check string) (name ^ ": message") (path ^ expect ^ "\n") err

let test_front_end () =
  check "parse error" "run" "int main( {\n"
    ~expect:":1:11: expected ) but found {";
  check "lexer error" "run" "int main(void) { return 0; }\n\001\n"
    ~expect:":2:1: unexpected character '\\001'";
  check "type error" "parse" "int main(void) { return x; }\n"
    ~expect:":1:25: undeclared identifier x";
  check "preprocessor error" "estimate" "#if\nint main(void) { return 0; }\n"
    ~expect:":1: unknown directive #if"

let test_run_time () =
  check "null dereference" "run"
    "int main(void) {\n  int *p = 0;\n  return *p;\n}\n"
    ~expect:": null pointer dereference";
  check "runaway recursion" "run"
    "int f(int n) { return f(n + 1) + 1; }\nint main(void) { return f(0); }\n"
    ~expect:": call depth limit exceeded (100000 nested calls)"

let test_bad_profile () =
  let src = temp_file ".c" "int main(void) { return 0; }\n" in
  let prof = temp_file ".prof" "garbage\n" in
  let code, err = spawn [ "score"; src; "--profile"; prof ] in
  Sys.remove src;
  Sys.remove prof;
  Alcotest.(check int) "exit code" 3 code;
  Alcotest.(check string) "message" (prof ^ ": not a profile-v1 file\n") err

let test_unknown_function () =
  let src = temp_file ".c" "int main(void) { return 0; }\n" in
  List.iter
    (fun cmd ->
      let code, err = spawn [ cmd; src; "--function"; "nosuch" ] in
      Alcotest.(check int) (cmd ^ ": exit code") 3 code;
      Alcotest.(check string) (cmd ^ ": message")
        (src ^ ": no such function nosuch\n") err)
    [ "cfg"; "estimate" ];
  Sys.remove src

(* Cmdliner wraps its message to the terminal; compare it with the
   whitespace collapsed. *)
let squeeze s =
  String.split_on_char '\n' s
  |> List.concat_map (String.split_on_char ' ')
  |> List.filter (( <> ) "")
  |> String.concat " "

let test_unknown_values () =
  List.iter
    (fun (args, expect) ->
      let code, err = spawn args in
      let name = String.concat " " args in
      Alcotest.(check int) (name ^ ": exit code") 124 code;
      let err = squeeze err in
      Alcotest.(check string) (name ^ ": message") expect
        (String.sub err 0 (min (String.length err) (String.length expect))))
    [ ( [ "experiment"; "nosuch" ],
        "estimator: ID argument: invalid value 'nosuch', expected one of \
         'all', 'table1', 'table2', 'fig2'," );
      ( [ "corpus"; "--classes"; "loop_nest,nosuch" ],
        "estimator: option '--classes': invalid element in list \
         ('loop_nest,nosuch'): invalid value 'nosuch', expected one of \
         'loop_nest', 'branchy', 'pointer_table' or 'recursive'" ) ]

let test_startup_paths () =
  List.iter
    (fun (args, path) ->
      let code, err = spawn args in
      let name = String.concat " " args in
      Alcotest.(check int) (name ^ ": exit code") 2 code;
      Alcotest.(check string) (name ^ ": message")
        (path ^ ": No such file or directory\n") err)
    [ ([ "record"; "-o"; "/nonexistent/x.json" ], "/nonexistent/x.json");
      ([ "corpus"; "-o"; "/nonexistent/x.json" ], "/nonexistent/x.json");
      ([ "serve"; "--store"; "/nonexistent/a/b" ], "/nonexistent/a/b");
      ( [ "serve"; "--socket"; "/nonexistent/dir/sock" ],
        "/nonexistent/dir/sock" );
      ([ "serve"; "--connect"; "/missing.sock" ], "/missing.sock") ]

let test_healthy () =
  let src =
    temp_file ".c" "int main(void) { printf(\"hi\\n\"); return 7; }\n"
  in
  let code, err = spawn [ "run"; src ] in
  Sys.remove src;
  Alcotest.(check int) "exit code is the program's" 7 code;
  Alcotest.(check string) "stderr" "[exit 7, 2 work units]\n" err

let () =
  Sys.chdir "../..";
  Alcotest.run "cli"
    [ ( "file commands",
        [ Alcotest.test_case "front-end faults" `Quick test_front_end;
          Alcotest.test_case "run-time faults" `Quick test_run_time;
          Alcotest.test_case "malformed saved profile" `Quick test_bad_profile;
          Alcotest.test_case "unknown function" `Quick test_unknown_function;
          Alcotest.test_case "healthy run" `Quick test_healthy ] );
      ( "arguments",
        [ Alcotest.test_case "unknown values" `Quick test_unknown_values;
          Alcotest.test_case "unusable startup paths" `Quick
            test_startup_paths ] ) ]
