(* In-process side of the benchmark (run.py drives it). Every subcommand
   prints one JSON document on stdout.

   goals, mix, refs and cold give the wire client what it needs to check
   the server: the goal selections of the simulated user and reference
   answers computed with Eval in this process, on the same graph files the
   server loads. session, codec and mapped are the traced run's replay. *)

module Json = Gps.Graph.Json
module Digraph = Gps.Graph.Digraph
module Disk_csr = Gps.Graph.Disk_csr
module Rpq = Gps.Query.Rpq
module Eval = Gps.Query.Eval
module Mix = Gps.Workload.Mix

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("replay: " ^ m); exit 2) fmt
let str s = Json.String s
let int n = Json.Number (float_of_int n)
let print_json v = print_endline (Json.value_to_string v)

let parse q = match Rpq.of_string q with Ok r -> r | Error e -> die "bad query %S: %s" q e

let load_heap file =
  try Gps.Graph.Codec.load file with e -> die "%s: %s" file (Printexc.to_string e)

let open_view file =
  match Disk_csr.open_map file with
  | Ok t -> Disk_csr.snapshot t
  | Error e -> die "%s: %s" file (Disk_csr.open_error_to_string e)

(* Selected node names, sorted bytewise, as the client compares them. *)
let names_of sel name =
  let acc = ref [] in
  Array.iteri (fun v b -> if b then acc := name v :: !acc) sel;
  List.sort compare !acc

let digest names = Digest.to_hex (Digest.string (String.concat "\n" names))

let reference query names =
  Json.Object [ ("query", str query); ("n", int (List.length names)); ("md5", str (digest names)) ]

(* goals FILE... : per graph, the Q1-Q7 goal selections, each selected
   node with the length of its shortest witness (the simulated user
   zooms out until that path fits in the fragment shown). *)
let goals files =
  let graph file =
    let g = load_heap file in
    let goal (name, q) =
      let selected = Gps.Query.Witness.find_all_selected g (parse q) in
      let witness =
        List.sort compare
          (List.map
             (fun (v, (w : Gps.Query.Witness.t)) ->
               (Digraph.node_name g v, List.length w.Gps.Query.Witness.word))
             selected)
      in
      Json.Object
        [
          ("name", str name);
          ("query", str q);
          ("witness", Json.Object (List.map (fun (n, l) -> (n, int l)) witness));
        ]
    in
    Json.Object
      [
        ("file", str file);
        ("nodes", int (Digraph.n_nodes g));
        ("goals", Json.Array (List.map goal Mix.paper_city_queries));
      ]
  in
  print_json (Json.Object [ ("graphs", Json.Array (List.map graph files)) ])

(* mix FILE SEED SPEC... : the named PathForge mixes on a heap graph. *)
let mix file seed specs =
  let g = load_heap file in
  let entries =
    List.concat_map
      (fun spec ->
        match Mix.find_spec spec with
        | None -> die "unknown mix %s" spec
        | Some s -> (Mix.generate s ~graph_name:"g" ~seed g).Mix.entries)
      specs
  in
  let entry (e : Mix.entry) =
    reference e.Mix.query (names_of (Eval.select ~domains:1 g (parse e.Mix.query)) (Digraph.node_name g))
  in
  print_json (Json.Object [ ("entries", Json.Array (List.map entry entries)) ])

(* refs FILE QUERY... : reference answers of queries on a heap graph. *)
let refs file queries =
  let g = load_heap file in
  let entry q = reference q (names_of (Eval.select ~domains:1 g (parse q)) (Digraph.node_name g)) in
  print_json (Json.Object [ ("entries", Json.Array (List.map entry queries)) ])

(* cold FILE.csr WINDOW SEED... : the interactive mix (one query per
   PathForge pattern) at each seed, in order, minus any query whose cache
   key (the server's graph-specialized normal form) already occurs within
   WINDOW positions of it when the list is cycled, so that a cache of fewer
   than WINDOW entries misses on every request. The labels of a uniform
   pack are symmetric, so every seed draws a list of the same cost shape. *)
let cold file window seeds =
  let view = open_view file in
  let known l = Disk_csr.label_of_name view l <> None in
  (* Mix only ranks labels and anchor nodes; the out-edges of a prefix of
     the node range give it a ranking without materializing the graph *)
  let g = Digraph.create () in
  for v = 0 to min (Disk_csr.n_nodes view) 4096 - 1 do
    Disk_csr.iter_out view v (fun lbl dst ->
        Digraph.link g (Disk_csr.node_name view v) (Disk_csr.label_name view lbl)
          (Disk_csr.node_name view dst))
  done;
  let spec = Option.get (Mix.find_spec "interactive") in
  let key (e : Mix.entry) =
    Rpq.to_string (Gps.Query.Rewrite.specialize_known ~known (parse e.Mix.query))
  in
  let near keys k = List.mem k (List.filteri (fun i _ -> i < window) keys) in
  (* kept keys, most recent first *)
  let kept =
    List.fold_left
      (fun acc e -> if near (List.map fst acc) (key e) then acc else (key e, e) :: acc)
      []
      (List.concat_map (fun seed -> (Mix.generate spec ~graph_name:"g" ~seed g).Mix.entries) seeds)
  in
  (* the list cycles: drop tail entries that repeat a key within WINDOW
     positions across the wrap *)
  let rec unwrap l =
    let a = Array.of_list l in
    let n = Array.length a in
    let clash i = List.exists (fun d -> i + d >= n && fst a.(i) = fst a.((i + d) mod n)) (List.init window Fun.id) in
    match List.find_opt clash (List.init n Fun.id) with
    | Some i when n > window -> unwrap (List.filteri (fun j _ -> j <> i) l)
    | _ -> l
  in
  let picked = List.map snd (unwrap (List.rev kept)) in
  let entry (e : Mix.entry) =
    reference e.Mix.query
      (names_of (Eval.select_mapped ~domains:1 view (parse e.Mix.query)) (Disk_csr.node_name view))
  in
  print_json (Json.Object [ ("entries", Json.Array (List.map entry picked)) ])

(* ------------------------------------------------------------------ *)
(* Traced replay: the same inputs as the wire pass, with the public calls
   that have no span in the program timed from here. *)

module Session = Gps.Interactive.Session
module Strategy = Gps.Interactive.Strategy
module Journal = Gps.Interactive.Journal
module Durability = Gps.Server.Durability
module Protocol = Gps.Server.Protocol

let now = Gps.Obs.Clock.now_ns
let since t0 = Int64.to_int (Int64.sub (now ()) t0)
let ms ns = Json.Number (float_of_int ns /. 1e6)

(* session STATE_DIR FILE... : goal Q(i mod 7 + 1) on the i-th graph, as
   session-smart runs them over the wire (smart strategy, seed 1, default
   config, the perfect user, every acked step journaled under
   fsync=always). *)
let session state_dir files =
  let choose_ns = ref 0 and contexts = ref [] in
  (* candidates are counted after the last timed call, on the saved (immutable)
     contexts, so the counting and the garbage it leaves stay out of every
     timed span *)
  let smart =
    {
      Strategy.smart with
      Strategy.choose =
        (fun ctx ->
          contexts := ctx :: !contexts;
          let t0 = now () in
          let r = Strategy.smart.Strategy.choose ctx in
          choose_ns := !choose_ns + since t0;
          r);
    }
  in
  let call_ns = Hashtbl.create 8 in
  let timed name f =
    let t0 = now () in
    let r = f () in
    Hashtbl.replace call_ns name (since t0 + Option.value ~default:0 (Hashtbl.find_opt call_ns name));
    r
  in
  let dur =
    match Durability.load ~dir:state_dir ~policy:Gps.Graph.Wal.Always with
    | Ok d -> d
    | Error e -> die "%s: %s" state_dir e
  in
  let appends = ref 0 and append_ns = ref 0 in
  let journal f =
    let t0 = now () in
    f ();
    append_ns := !append_ns + since t0;
    incr appends
  in
  let next_id = ref 0 in
  let run_one gi file g (name, q) =
    let goal = parse q in
    let user = Gps.Interactive.Oracle.perfect ~goal in
    incr next_id;
    let id = !next_id in
    let graph = Printf.sprintf "g%d" gi in
    let s = timed "start" (fun () -> Session.start ~strategy:smart g) in
    journal (fun () ->
        Durability.journal_start dur ~id ~graph ~version:1 ~strategy:"smart" ~seed:1 ~budget:None);
    let node_name v = Some (Digraph.node_name g v) in
    let rec go s =
      match Session.request s with
      | Session.Ask_label view ->
          let a = user.Gps.Interactive.Oracle.label g view in
          let s = timed "answer_label" (fun () -> Session.answer_label s a) in
          journal (fun () ->
              Durability.journal_answer dur ~id
                (Journal.Label (node_name view.Gps.Interactive.View.node, a)));
          go s
      | Session.Ask_path tree ->
          let w = user.Gps.Interactive.Oracle.validate g tree in
          let s = timed "answer_path" (fun () -> Session.answer_path s w) in
          journal (fun () ->
              Durability.journal_answer dur ~id
                (Journal.Validate (node_name tree.Gps.Interactive.View.node, w)));
          go s
      | Session.Propose p ->
          let ok = user.Gps.Interactive.Oracle.satisfied g p in
          let s =
            if ok then timed "accept" (fun () -> Session.accept s)
            else timed "refine" (fun () -> Session.refine s)
          in
          journal (fun () ->
              Durability.journal_answer dur ~id (Journal.Satisfied (Rpq.to_string p, ok)));
          go s
      | Session.Finished o -> (s, o)
    in
    let s, o = go s in
    Json.Object
      [
        ("graph", str (Filename.basename file));
        ("goal", str name);
        ("questions", int (Session.questions s));
        ("satisfied", Json.Bool (o.Session.reason = Session.Satisfied));
      ]
  in
  let goals = Array.of_list Mix.paper_city_queries in
  let sessions =
    List.mapi
      (fun i file -> run_one i file (load_heap file) goals.(i mod Array.length goals))
      files
  in
  let candidates =
    List.fold_left (fun n ctx -> n + List.length (Strategy.candidates ctx)) 0 !contexts
  in
  Durability.close dur;
  let calls_json =
    Json.Object
      (List.map
         (fun k -> (k, ms (Option.value ~default:0 (Hashtbl.find_opt call_ns k))))
         [ "start"; "answer_label"; "answer_path"; "refine"; "accept" ])
  in
  print_json
    (Json.Object
       [
         ("sessions", Json.Array sessions);
         ( "strategy",
           Json.Object
             [
               ("ms", ms !choose_ns);
               ("calls", int (List.length !contexts));
               ("candidates", int candidates);
             ] );
         ("calls_ms", calls_json);
         ("durability", Json.Object [ ("appends", int !appends); ("ms", ms !append_ns) ]);
       ])

(* codec REQUESTS RESPONSES : each file holds "COUNT<TAB>LINE" rows, the
   distinct wire lines of one pass. Times Json + Protocol decoding of the
   requests and Protocol + Json encoding of the responses, COUNT times
   each, as the server does per request. *)
let codec req_file resp_file =
  let rows file =
    In_channel.with_open_bin file In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter_map (fun row ->
           match String.index_opt row '\t' with
           | None -> None
           | Some i ->
               Some
                 ( int_of_string (String.sub row 0 i),
                   String.sub row (i + 1) (String.length row - i - 1) ))
  in
  let total f rows =
    List.fold_left
      (fun (n, ns) (count, x) ->
        let t0 = now () in
        for _ = 1 to count do
          f x
        done;
        (n + count, ns + since t0))
      (0, 0) rows
  in
  let n_req, dec_ns =
    total
      (fun line ->
        match Protocol.decode_request (Json.value_of_string line) with
        | Ok _ -> ()
        | Error e -> die "undecodable request %s: %s" line e.Protocol.message)
      (rows req_file)
  in
  let responses =
    List.map
      (fun (count, line) ->
        match Protocol.decode_response (Json.value_of_string line) with
        | Ok r -> (count, r)
        | Error e -> die "undecodable response: %s" e.Protocol.message)
      (rows resp_file)
  in
  let n_resp, enc_ns = total (fun r -> ignore (Protocol.response_to_string r)) responses in
  let per n ns = Json.Number (if n = 0 then 0. else float_of_int ns /. 1e3 /. float_of_int n) in
  print_json
    (Json.Object
       [
         ("requests", int n_req);
         ("decode_us", per n_req dec_ns);
         ("responses", int n_resp);
         ("encode_us", per n_resp enc_ns);
       ])

(* mapped FILE.csr QUERY... : Eval.select_mapped on each cold query, in the
   graph-specialized form the server evaluates. *)
let mapped file queries =
  let view = open_view file in
  let known l = Disk_csr.label_of_name view l <> None in
  let total =
    List.fold_left
      (fun acc q ->
        let q = Gps.Query.Rewrite.specialize_known ~known (parse q) in
        let t0 = now () in
        ignore (Eval.select_mapped ~domains:1 view q);
        acc + since t0)
      0 queries
  in
  print_json (Json.Object [ ("queries", int (List.length queries)); ("mapped_ms", ms total) ])

let () =
  match Array.to_list Sys.argv |> List.tl with
  | "goals" :: files -> goals files
  | [ "mix"; file; seed; specs ] -> mix file (int_of_string seed) (String.split_on_char ',' specs)
  | "cold" :: file :: window :: seeds -> cold file (int_of_string window) (List.map int_of_string seeds)
  | "refs" :: file :: queries -> refs file queries
  | "session" :: state_dir :: files -> session state_dir files
  | [ "codec"; reqs; resps ] -> codec reqs resps
  | "mapped" :: file :: queries -> mapped file queries
  | _ ->
      die
        "usage: replay (goals FILE... | mix FILE SEED SPECS | refs FILE QUERY... | cold FILE.csr \
         WINDOW SEED... | session STATE_DIR FILE... | codec REQUESTS RESPONSES | mapped FILE.csr \
         QUERY...)"
