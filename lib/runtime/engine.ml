(** Execution-engine selection for Mini-C interpretation.

    [Tree] is the original tree-walking interpreter ({!Eval} /
    {!Kernel_exec}); [Compiled] is the closure-compilation backend
    ({!Resolve} / {!Compile}) that resolves variables to array slots at
    compile time and turns the AST into nested OCaml closures.  The two
    engines are bit-identical in observable behavior — outputs, [ops]
    accounting, hook firing, reduction order — which the differential test
    suite enforces; only wall-clock speed differs.  [Compiled] is the
    default everywhere; [Tree] stays as the independent oracle. *)

type t = Tree | Compiled

let to_string = function Tree -> "tree" | Compiled -> "compiled"

let of_string = function
  | "tree" -> Some Tree
  | "compiled" -> Some Compiled
  | _ -> None

let all = [ Tree; Compiled ]
