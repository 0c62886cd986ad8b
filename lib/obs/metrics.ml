(* Obs.Metrics: the unified metrics registry.

   A registry is an insertion-ordered list of named entries.  A write to
   a name already present updates its entry in place, so the entry keeps
   the place of the name's first write; nothing rebuilds the list.  The
   rendering is deliberately hand-rolled (no yojson in the container) and
   byte-stable: keys keep insertion order and floats that must reproduce
   exactly carry their own precision (Fixed).  Dotted names fold into
   nested objects at render time, so producers can write "sim.cycles"
   without coordinating on a tree structure. *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Fixed of int * float
  | String of string
  | List of json list
  | Obj of (string * json) list

(* --- rendering --- *)

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let scalar_to_string = function
  | Null -> "null"
  | Bool b -> if b then "true" else "false"
  | Int n -> string_of_int n
  | Float f ->
    if Float.is_integer f && Float.abs f < 1e15 then
      Printf.sprintf "%.1f" f
    else Printf.sprintf "%.6g" f
  | Fixed (d, f) -> Printf.sprintf "%.*f" d f
  | String s -> Printf.sprintf "\"%s\"" (escape_string s)
  | List _ | Obj _ -> invalid_arg "Metrics.scalar_to_string"

let is_scalar = function
  | Null | Bool _ | Int _ | Float _ | Fixed _ | String _ -> true
  | List _ | Obj _ -> false

let render j =
  let buf = Buffer.create 256 in
  let pad n = Buffer.add_string buf (String.make n ' ') in
  let rec go indent j =
    match j with
    | Null | Bool _ | Int _ | Float _ | Fixed _ | String _ ->
      Buffer.add_string buf (scalar_to_string j)
    | List [] -> Buffer.add_string buf "[]"
    | List items when List.for_all is_scalar items ->
      (* lists of scalars stay inline: "args": [54, 24] *)
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf (scalar_to_string item))
        items;
      Buffer.add_char buf ']'
    | List items ->
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string buf ",\n";
          pad (indent + 2);
          go (indent + 2) item)
        items;
      Buffer.add_char buf '\n';
      pad indent;
      Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj members ->
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ",\n";
          pad (indent + 2);
          Buffer.add_string buf (Printf.sprintf "\"%s\": " (escape_string k));
          go (indent + 2) v)
        members;
      Buffer.add_char buf '\n';
      pad indent;
      Buffer.add_char buf '}'
  in
  go 0 j;
  Buffer.contents buf

let render_compact j =
  let buf = Buffer.create 64 in
  let rec go j =
    match j with
    | Null | Bool _ | Int _ | Float _ | Fixed _ | String _ ->
      Buffer.add_string buf (scalar_to_string j)
    | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string buf ", ";
          go item)
        items;
      Buffer.add_char buf ']'
    | Obj members ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf (Printf.sprintf "\"%s\": " (escape_string k));
          go v)
        members;
      Buffer.add_char buf '}'
  in
  go j;
  Buffer.contents buf

(* --- parsing: the inverse of render_compact, decoding the serve wire
   protocol --- *)

exception Fail of string * int

let fail pos msg = raise (Fail (msg, pos))

let parse (s : string) : (json, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail !pos (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    if !pos + String.length word <= n
       && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail !pos (Printf.sprintf "expected %s" word)
  in
  let utf8_of_code buf u =
    (* \uXXXX escapes decode to UTF-8 bytes *)
    if u < 0x80 then Buffer.add_char buf (Char.chr u)
    else if u < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let escape () =
      match peek () with
      | None -> fail !pos "unterminated escape"
      | Some c -> (
        advance ();
        match c with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' -> (
          if !pos + 4 > n then fail !pos "truncated \\u escape";
          let hex = String.sub s !pos 4 in
          match int_of_string_opt ("0x" ^ hex) with
          | Some u ->
            pos := !pos + 4;
            utf8_of_code buf u
          | None -> fail !pos "bad \\u escape")
        | c -> fail !pos (Printf.sprintf "bad escape \\%c" c))
    in
    let rec go () =
      match peek () with
      | None -> fail !pos "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        escape ();
        go ()
      | Some c when Char.code c < 0x20 -> fail !pos "raw control character"
      | Some c ->
        advance ();
        Buffer.add_char buf c;
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while match peek () with Some c when is_num_char c -> true | _ -> false
    do
      advance ()
    done;
    let lit = String.sub s start (!pos - start) in
    let integral =
      not (String.exists (fun c -> c = '.' || c = 'e' || c = 'E') lit)
    in
    if integral then
      match int_of_string_opt lit with
      | Some i -> Int i
      | None -> (
        match float_of_string_opt lit with
        | Some f -> Float f
        | None -> fail start (Printf.sprintf "bad number %S" lit))
    else
      match float_of_string_opt lit with
      | Some f -> Float f
      | None -> fail start (Printf.sprintf "bad number %S" lit)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail !pos "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let members = ref [] in
        let rec members_loop () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          members := (k, v) :: !members;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members_loop ()
          | Some '}' -> advance ()
          | _ -> fail !pos "expected ',' or '}'"
        in
        members_loop ();
        Obj (List.rev !members)
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [] in
        let rec items_loop () =
          let v = parse_value () in
          items := v :: !items;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items_loop ()
          | Some ']' -> advance ()
          | _ -> fail !pos "expected ',' or ']'"
        in
        items_loop ();
        List (List.rev !items)
      end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('0' .. '9' | '-') -> parse_number ()
    | Some c -> fail !pos (Printf.sprintf "unexpected %C" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail !pos "trailing bytes after JSON value";
    v
  with
  | v -> Ok v
  | exception Fail (msg, p) ->
    Error (Printf.sprintf "JSON parse error at offset %d: %s" p msg)

let member name = function
  | Obj members -> List.assoc_opt name members
  | _ -> None

(* --- histograms --- *)

module Histogram = struct
  (* Geometric bucket upper bounds in milliseconds: 0.001 ms doubling up
     to ~537 s.  Fixed bounds keep the JSON rendering (and percentile
     readouts) deterministic for a given set of observations. *)
  let bounds = Array.init 30 (fun i -> 0.001 *. (2. ** float_of_int i))

  type h = {
    counts : int array; (* length bounds + 1; the last is overflow *)
    mutable n : int;
    mutable total : float;
    mutable min_v : float;
    mutable max_v : float;
  }

  let create () =
    { counts = Array.make (Array.length bounds + 1) 0;
      n = 0;
      total = 0.;
      min_v = infinity;
      max_v = neg_infinity }

  let bucket_of v =
    let rec go i =
      if i >= Array.length bounds then i
      else if v <= bounds.(i) then i
      else go (i + 1)
    in
    go 0

  let observe t v =
    let b = bucket_of v in
    t.counts.(b) <- t.counts.(b) + 1;
    t.n <- t.n + 1;
    t.total <- t.total +. v;
    if v < t.min_v then t.min_v <- v;
    if v > t.max_v then t.max_v <- v

  (* The q-th percentile reads as the upper bound of the smallest bucket
     whose cumulative count reaches rank ceil(q/100 * n), clamped to the
     largest observation — bucket arithmetic over integer counts, so the
     readout is deterministic. *)
  let percentile t q =
    if t.n = 0 then 0.
    else begin
      let rank =
        max 1 (min t.n (int_of_float (ceil (q /. 100. *. float_of_int t.n))))
      in
      let rec go i acc =
        if i >= Array.length t.counts then t.max_v
        else
          let acc = acc + t.counts.(i) in
          if acc >= rank then
            if i >= Array.length bounds then t.max_v
            else Float.min bounds.(i) t.max_v
          else go (i + 1) acc
      in
      go 0 0
    end

  let to_json t =
    if t.n = 0 then
      Obj [ ("count", Int 0) ]
    else
      let buckets =
        List.concat
          (List.mapi
             (fun i c ->
               if c = 0 then []
               else
                 [ Obj
                     [ ( "le_ms",
                         if i >= Array.length bounds then String "inf"
                         else Fixed (3, bounds.(i)) );
                       ("count", Int c) ] ])
             (Array.to_list t.counts))
      in
      Obj
        [ ("count", Int t.n);
          ("sum_ms", Fixed (3, t.total));
          ("min_ms", Fixed (3, t.min_v));
          ("max_ms", Fixed (3, t.max_v));
          ("p50_ms", Fixed (3, percentile t 50.));
          ("p90_ms", Fixed (3, percentile t 90.));
          ("p99_ms", Fixed (3, percentile t 99.));
          ("buckets", List buckets) ]
end

(* --- the registry --- *)

(* Histogram cells stay live (mutable) in the registry and materialize to
   JSON at read time; everything else is a plain JSON value. *)
type cell = Json of json | Hist of Histogram.h

(* An entry is updated in place: a write to a name already present
   overwrites that entry's cell, so a counter bump allocates only its new
   value and the entry keeps the place its first write gave it. *)
type entry = { name : string; mutable cell : cell }

type t = { mutable entries : entry list (* newest first *) }

let create () = { entries = [] }

let materialize = function
  | Json j -> j
  | Hist h -> Histogram.to_json h

let rec lookup name = function
  | [] -> raise_notrace Not_found
  | e :: rest -> if String.equal e.name name then e else lookup name rest

let add t name cell = t.entries <- { name; cell } :: t.entries

let set t name v =
  match lookup name t.entries with
  | e -> e.cell <- Json v
  | exception Not_found -> add t name (Json v)

let find t name =
  match lookup name t.entries with
  | e -> Some (materialize e.cell)
  | exception Not_found -> None

let observe_ms t name v =
  match lookup name t.entries with
  | { cell = Hist h; _ } -> Histogram.observe h v
  | { cell = Json _; _ } ->
    invalid_arg
      (Printf.sprintf "Metrics.observe_ms: %S is not a histogram" name)
  | exception Not_found ->
    let h = Histogram.create () in
    Histogram.observe h v;
    add t name (Hist h)

let histogram t name =
  match lookup name t.entries with
  | { cell = Hist h; _ } -> Some h
  | { cell = Json _; _ } | (exception Not_found) -> None
let set_int t name n = set t name (Int n)
let set_bool t name b = set t name (Bool b)
let set_string t name s = set t name (String s)
let set_fixed t name ~decimals f = set t name (Fixed (decimals, f))

let incr t ?(by = 1) name =
  match lookup name t.entries with
  | { cell = Json (Int n); _ } as e -> e.cell <- Json (Int (n + by))
  | { cell = Json _ | Hist _; _ } ->
    invalid_arg (Printf.sprintf "Metrics.incr: %S is not an Int" name)
  | exception Not_found -> add t name (Json (Int by))

let add_ms t name ms =
  match lookup name t.entries with
  | { cell = Json (Fixed (d, prev)); _ } as e ->
    e.cell <- Json (Fixed (d, prev +. ms))
  | { cell = Json _ | Hist _; _ } ->
    invalid_arg (Printf.sprintf "Metrics.add_ms: %S is not a timer" name)
  | exception Not_found -> add t name (Json (Fixed (3, ms)))

let pairs t = List.rev_map (fun e -> (e.name, materialize e.cell)) t.entries

let merge ~into ?prefix src =
  let rename k =
    match prefix with None -> k | Some p -> p ^ "." ^ k
  in
  List.iter (fun (k, v) -> set into (rename k) v) (pairs src)

(* Fold dotted names into nested objects, preserving first-appearance
   order at every level.  A name that is both a leaf and a group prefix
   keeps the group (the leaf is dropped) — producers should not mix the
   two under one name. *)
let to_json t =
  let rec nest (entries : (string list * json) list) : json =
    let order = ref [] in
    let groups = Hashtbl.create 8 in
    List.iter
      (fun (path, v) ->
        match path with
        | [] -> ()
        | key :: rest ->
          if not (Hashtbl.mem groups key) then order := key :: !order;
          let prev = try Hashtbl.find groups key with Not_found -> [] in
          Hashtbl.replace groups key ((rest, v) :: prev))
      entries;
    Obj
      (List.rev_map
         (fun key ->
           let sub = List.rev (Hashtbl.find groups key) in
           match sub with
           | [ ([], v) ] -> (key, v)
           | sub -> (key, nest (List.filter (fun (p, _) -> p <> []) sub)))
         !order)
  in
  nest
    (List.map (fun (k, v) -> (String.split_on_char '.' k, v)) (pairs t))

let render_flat t =
  List.map
    (fun (k, v) ->
      ( k,
        match v with
        | String s -> s
        | Null | Bool _ | Int _ | Float _ | Fixed _ -> scalar_to_string v
        | List _ | Obj _ -> render_compact v ))
    (pairs t)

let write_file t path =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (render (to_json t));
      output_char oc '\n')
