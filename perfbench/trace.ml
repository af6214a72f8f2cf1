(* In-memory span recorder for the traced run: every call the benchmark
   makes into a layer is bracketed by a span (name, start, end, parent,
   and a group id shared by the spans of one program, episode or
   request). Spans stay in memory and are written out when the run ends,
   so recording costs a clock read and an allocation per span. A
   disabled recorder runs the bracketed code and records nothing, so the
   same code also gives the untraced wall time the overhead is measured
   against. *)

type span = {
  id : int;
  name : string;
  group : int;
  parent : int;  (** -1 for a top-level span *)
  t0 : float;
  mutable t1 : float;
  mutable attrs : (string * float) list;
}

type t = {
  enabled : bool;
  clock : unit -> float;
  mutable spans : span list;  (** finished spans, newest first *)
  mutable next_id : int;
  mutable stack : span list;  (** open spans, innermost first *)
  mutable group : int;
}

let create ?(clock = Unix.gettimeofday) ~enabled () : t =
  { enabled; clock; spans = []; next_id = 0; stack = []; group = 0 }

let enabled (t : t) = t.enabled

let open_span (t : t) name ~t0 attrs : span =
  let parent = match t.stack with s :: _ -> s.id | [] -> -1 in
  let sp = { id = t.next_id; name; group = t.group; parent; t0; t1 = t0; attrs } in
  t.next_id <- t.next_id + 1;
  sp

let with_ ?(attrs = []) (t : t) (name : string) (f : unit -> 'a) : 'a =
  if not t.enabled then f ()
  else begin
    let sp = open_span t name ~t0:(t.clock ()) attrs in
    t.stack <- sp :: t.stack;
    let finish () =
      sp.t1 <- t.clock ();
      t.stack <- List.tl t.stack;
      t.spans <- sp :: t.spans
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* Attach a numeric attribute to the innermost open span. *)
let set_attr (t : t) (key : string) (v : float) : unit =
  match t.stack with
  | sp :: _ when t.enabled -> sp.attrs <- (key, v) :: sp.attrs
  | _ -> ()

(* Record an already-timed child of the innermost open span — for work a
   layer timed itself (the pass manager's per-pass seconds). *)
let add_child ?(attrs = []) (t : t) (name : string) ~(t0 : float) ~(t1 : float)
    : unit =
  if t.enabled then begin
    let sp = open_span t name ~t0 attrs in
    sp.t1 <- t1;
    t.spans <- sp :: t.spans
  end

let in_group (t : t) (g : int) (f : unit -> 'a) : 'a =
  let saved = t.group in
  t.group <- g;
  match f () with
  | v ->
    t.group <- saved;
    v
  | exception e ->
    t.group <- saved;
    raise e

let spans (t : t) : span list = List.rev t.spans

(* --- self time ---------------------------------------------------------------

   A span's self time is its duration minus the part of its interval
   that its children cover. Children may overlap each other (work timed
   on several domains); the union is what is subtracted, clipped to the
   parent's own interval. *)

let covered ~(lo : float) ~(hi : float) (intervals : (float * float) list) :
    float =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
          if a <= cb then (total, Some (ca, Float.max cb b))
          else (total +. (cb -. ca), Some (a, b)))
      (0.0, None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

let self_times (spans : span list) : (span * float) list =
  let kids : (int, float * float) Hashtbl.t = Hashtbl.create 1024 in
  List.iter (fun s -> if s.parent >= 0 then Hashtbl.add kids s.parent (s.t0, s.t1)) spans;
  List.map
    (fun s ->
      let dur = s.t1 -. s.t0 in
      (s, dur -. covered ~lo:s.t0 ~hi:s.t1 (Hashtbl.find_all kids s.id)))
    spans

(* Self seconds summed per span name, largest first. *)
let self_by_name (spans : span list) : (string * float) list =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (s, self) ->
      Hashtbl.replace tbl s.name
        (self +. Option.value ~default:0.0 (Hashtbl.find_opt tbl s.name)))
    (self_times spans);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

(* Self seconds of every span below a top-level one: the part of the
   top-level spans' wall that the layer spans inside them account for.
   The top-level spans' own self time, what no layer span covers, is left
   out. *)
let layer_self (spans : span list) : float =
  List.fold_left
    (fun acc (s, self) -> if s.parent >= 0 then acc +. self else acc)
    0.0 (self_times spans)

(* --- queries ------------------------------------------------------------------ *)

let named (spans : span list) (name : string) : span list =
  List.filter (fun s -> s.name = name) spans

let durations (spans : span list) (name : string) : float array =
  Array.of_list (List.map (fun s -> s.t1 -. s.t0) (named spans name))

let total (spans : span list) (name : string) : float =
  Array.fold_left ( +. ) 0.0 (durations spans name)

(* Total seconds of the spans named [name] that run inside a span named
   [ancestor]. *)
let total_under (spans : span list) ~(ancestor : string) (name : string) : float =
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  let rec inside s =
    match Hashtbl.find_opt by_id s.parent with
    | None -> false
    | Some p -> p.name = ancestor || inside p
  in
  List.fold_left
    (fun acc s -> if s.name = name && inside s then acc +. (s.t1 -. s.t0) else acc)
    0.0 spans

let attr (s : span) (key : string) : float =
  Option.value ~default:0.0 (List.assoc_opt key s.attrs)

(* --- output ------------------------------------------------------------------- *)

(* One JSON object per span, in start order; times in seconds relative to
   the first span's start. *)
let write (spans : span list) (path : string) : unit =
  let base = List.fold_left (fun m s -> Float.min m s.t0) infinity spans in
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"group\":%d,\"parent\":%d,\"start\":%.9f,\"end\":%.9f"
        s.id s.name s.group s.parent (s.t0 -. base) (s.t1 -. base);
      List.iter (fun (k, v) -> Printf.fprintf oc ",%S:%.17g" k v) (List.rev s.attrs);
      output_string oc "}\n")
    (List.sort (fun a b -> compare (a.t0, a.id) (b.t0, b.id)) spans);
  close_out oc
