(* The backend registry.  Descriptors live with their backends; this
   module only collects them and resolves names.  The registration list
   at the bottom is the single place the repo enumerates backends. *)

type t = { id : string }

exception Unknown_backend of string

(* canonical name -> descriptor, in registration order *)
let table : (string * Backend.descriptor) list ref = ref []

(* lowercased name/alias -> canonical name *)
let by_name : (string, string) Hashtbl.t = Hashtbl.create 32

let catalog () =
  String.concat ", "
    (List.map
       (fun (name, (d : Backend.descriptor)) ->
         match d.Backend.aliases with
         | [] -> name
         | aliases ->
           Printf.sprintf "%s (alias %s)" name (String.concat ", " aliases))
       (List.rev !table))

let register (d : Backend.descriptor) =
  let keys =
    List.map String.lowercase_ascii (d.Backend.name :: d.Backend.aliases)
  in
  List.iter
    (fun k ->
      if Hashtbl.mem by_name k then
        invalid_arg
          (Printf.sprintf "Registry.register: %S already names backend %S" k
             (Hashtbl.find by_name k)))
    keys;
  table := (d.Backend.name, d) :: !table;
  List.iter (fun k -> Hashtbl.replace by_name k d.Backend.name) keys

let find s =
  Option.map
    (fun id -> { id })
    (Hashtbl.find_opt by_name (String.lowercase_ascii s))

let resolve s =
  match find s with
  | Some h -> Ok h
  | None ->
    Error (Printf.sprintf "unknown backend %S; registered: %s" s (catalog ()))

let get s =
  match resolve s with Ok h -> h | Error msg -> raise (Unknown_backend msg)

(* A handle can only be forged by constructing the abstract type through
   a stale marshalled value or similar; answer with the catalog instead
   of an anonymous Not_found. *)
let descriptor (h : t) =
  match List.assoc_opt h.id !table with
  | Some d -> d
  | None ->
    raise
      (Unknown_backend
         (Printf.sprintf "stale backend handle %S; registered: %s" h.id
            (catalog ())))
let name (h : t) = h.id
let aliases h = (descriptor h).Backend.aliases
let dialect h = (descriptor h).Backend.dialect
let pipeline h = (descriptor h).Backend.pipeline
let capabilities h = (descriptor h).Backend.capabilities
let compile h ?(config = Config.default) program ~entry =
  (descriptor h).Backend.compile ~config program ~entry
let equal (a : t) (b : t) = a.id = b.id

let all () = List.rev_map (fun (id, _) -> { id }) !table

let compiling () =
  List.filter (fun h -> (capabilities h).Backend.c_frontend) (all ())

let names () = List.map name (all ())

let resolve_backends names =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | n :: rest when String.trim n = "" -> go acc rest
    | n :: rest ->
      Result.bind (resolve (String.trim n)) (fun b -> go (b :: acc) rest)
  in
  go [] names

let resolve_dialect name =
  match find name with
  | Some h -> Ok (dialect h)
  | None -> (
    match Dialect.find name with
    | Some d -> Ok d
    | None ->
      Error
        (Printf.sprintf "unknown dialect %S (try handelc, specc, bachc)" name))

(* --- registrations: the paper's Table 1, one line per backend --- *)

let () =
  List.iter register
    [ Cones.descriptor;
      Hardwarec.descriptor;
      Transmogrifier.descriptor;
      Systemc.descriptor;
      Ocapi.descriptor;
      C2v_backend.descriptor;
      Bachc.cyber_descriptor;
      Handelc.descriptor;
      Specc.descriptor;
      Bachc.descriptor;
      Cash.descriptor ]
