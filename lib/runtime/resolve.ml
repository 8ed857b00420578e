(** Compile-time variable resolution for the closure-compilation engine.

    A resolver mirrors the lexical scope structure of one activation (a
    function body, the [main] body, a host statement, or a kernel) and
    assigns every name the activation touches a slot in its flat register
    array.  Slots are *not* reused across sibling scopes — [next] only
    grows — so a stale register can never be observed under a slot that a
    sibling scope also uses; reading a register whose declaration has not
    executed yet surfaces as the same "unbound variable" error the
    tree-walker raises.

    A name that no enclosing scope declares at its point of use is free in
    the activation (a global, or a name an earlier host fragment declared)
    and gets a register of its own, one per name.  The activation's entry
    binds each free register from the environment once ({!free}); a later
    declaration of the same name shadows it as usual. *)

type t = {
  mutable scopes : (string, int) Hashtbl.t list;  (** innermost first *)
  mutable free : (string * int) list;  (** reversed first-use order *)
  mutable roots : (string * int) list;  (** reversed root-scope declarations *)
  mutable next : int;  (** next fresh register index *)
}

let create () = { scopes = [ Hashtbl.create 8 ]; free = []; roots = []; next = 0 }

let enter t = t.scopes <- Hashtbl.create 8 :: t.scopes

let leave t =
  match t.scopes with
  | _ :: rest -> t.scopes <- rest
  | [] -> invalid_arg "Resolve.leave: no open scope"

(** Run [f] inside a child scope. *)
let scoped t f =
  enter t;
  Fun.protect ~finally:(fun () -> leave t) f

let fresh t =
  let slot = t.next in
  t.next <- slot + 1;
  slot

(** Declare [name] in the innermost scope; returns its register slot.
    Redeclaring a name in the same scope shadows it with a fresh slot,
    matching [Hashtbl.replace] semantics of the tree-walker's frames. *)
let declare t name =
  match t.scopes with
  | scope :: rest ->
      let slot = fresh t in
      Hashtbl.replace scope name slot;
      if rest = [] then t.roots <- (name, slot) :: t.roots;
      slot
  | [] -> invalid_arg "Resolve.declare: no open scope"

(** Register slot of [name] at this point: its innermost declaration, or
    else its free register. *)
let slot_of t name =
  match List.find_map (fun scope -> Hashtbl.find_opt scope name) t.scopes with
  | Some slot -> slot
  | None -> (
      match List.assoc_opt name t.free with
      | Some slot -> slot
      | None ->
          let slot = fresh t in
          t.free <- (name, slot) :: t.free;
          slot)

(** The names free in the activation, with their registers, in first-use
    order. *)
let free t = List.rev t.free

(** Declarations of the root scope with their registers, in order. *)
let root_decls t = List.rev t.roots

(** Every declared name visible at this point, with the register of its
    innermost declaration. *)
let visible t =
  let seen = Hashtbl.create 16 in
  List.iter
    (Hashtbl.iter (fun name slot ->
         if not (Hashtbl.mem seen name) then Hashtbl.replace seen name slot))
    t.scopes;
  Hashtbl.fold (fun name slot acc -> (name, slot) :: acc) seen []

let frame_size t = t.next
