module Json = Nu_obs.Json
module Store_fault = Nu_fault.Store_fault

let ( let* ) = Result.bind

type entry =
  | Arrive of { tick : int; request : Request.t }
  | Tick_done of int

let entry_to_json = function
  | Arrive { tick; request } ->
      Json.Obj
        [
          ("op", Json.String "arrive");
          ("tick", Json.Int tick);
          ("request", Codec.request_to_json request);
        ]
  | Tick_done tick ->
      Json.Obj [ ("op", Json.String "tick_done"); ("tick", Json.Int tick) ]

let entry_of_json j =
  let* op = Codec.string_field "op" j in
  match op with
  | "arrive" ->
      let* tick = Codec.int_field "tick" j in
      let* rj = Codec.field "request" j in
      let* request = Codec.request_of_json rj in
      Ok (Arrive { tick; request })
  | "tick_done" ->
      let* tick = Codec.int_field "tick" j in
      Ok (Tick_done tick)
  | op -> Error ("unknown journal op: " ^ op)

(* ------------------------------------------------------------------ *)
(* CRC32 (IEEE 802.3 reflected polynomial, table-driven).              *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           c :=
             if Int32.logand !c 1l <> 0l then
               Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
             else Int32.shift_right_logical !c 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFFl in
  String.iter
    (fun ch ->
      let idx =
        Int32.to_int
          (Int32.logand
             (Int32.logxor !c (Int32.of_int (Char.code ch)))
             0xFFl)
      in
      c := Int32.logxor table.(idx) (Int32.shift_right_logical !c 8))
    s;
  (Int32.to_int (Int32.logxor !c 0xFFFFFFFFl)) land 0xFFFFFFFF

(* ------------------------------------------------------------------ *)
(* Frame format.
   Segment  = "NUWAL002" header, then frames back to back.
   Frame    = 'N' 'J' | u32-LE payload length | u32-LE CRC32(payload)
              | payload (the entry's JSON). *)

let segment_magic = "NUWAL002"
let frame_header_bytes = 10

(* A corrupted length field must not swallow the rest of the segment:
   anything past this cap is treated as framing damage and resynced. *)
let max_frame_payload = 16 * 1024 * 1024

let add_le32 b v =
  Buffer.add_char b (Char.chr (v land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 24) land 0xff))

let rd_le32 s pos =
  Char.code s.[pos]
  lor (Char.code s.[pos + 1] lsl 8)
  lor (Char.code s.[pos + 2] lsl 16)
  lor (Char.code s.[pos + 3] lsl 24)

let encode_frame payload =
  let b = Buffer.create (String.length payload + frame_header_bytes) in
  Buffer.add_char b 'N';
  Buffer.add_char b 'J';
  add_le32 b (String.length payload);
  add_le32 b (crc32 payload);
  Buffer.add_string b payload;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Writer: segment 0 is the journal path itself, later segments are
   path.segN — newest is the highest index, so a plain `--journal FILE`
   keeps working while long runs rotate.                               *)

let segment_path base i =
  if i = 0 then base else Printf.sprintf "%s.seg%d" base i

let default_segment_bytes = 4 * 1024 * 1024

type writer = {
  base : string;
  segment_bytes : int;
  fault : Store_fault.t option;
  mutable oc : out_channel;
  mutable seg_index : int;
  mutable seg_size : int;
  mutable entries : int;
  mutable closed : bool;
}

(* With a fault device attached, every append is OS-flushed immediately:
   durability is modelled by the device's durable/written accounting,
   not by channel buffering, so a simulated crash sees exactly the
   bytes the model says are on disk. *)
let emit w data =
  let path = segment_path w.base w.seg_index in
  (match w.fault with
  | None -> output_string w.oc data
  | Some f -> (
      match Store_fault.on_append f ~path data with
      | Store_fault.Write bytes ->
          output_string w.oc bytes;
          Stdlib.flush w.oc;
          Store_fault.note_written f ~path (String.length bytes)
      | Store_fault.Torn prefix ->
          output_string w.oc prefix;
          Stdlib.flush w.oc;
          Store_fault.note_written f ~path (String.length prefix);
          Store_fault.crash f ~reason:"torn write"));
  w.seg_size <- w.seg_size + String.length data

let remove_stale_segments base =
  let i = ref 1 in
  while Sys.file_exists (segment_path base !i) do
    Sys.remove (segment_path base !i);
    incr i
  done

let file_size path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  close_in ic;
  n

let open_writer ?(append = false) ?(segment_bytes = default_segment_bytes)
    ?fault path =
  if segment_bytes < String.length segment_magic + frame_header_bytes then
    invalid_arg "Journal.open_writer: segment_bytes too small";
  let fresh () =
    remove_stale_segments path;
    let oc = open_out_gen [ Open_wronly; Open_creat; Open_trunc ] 0o644 path in
    let w =
      {
        base = path;
        segment_bytes;
        fault;
        oc;
        seg_index = 0;
        seg_size = 0;
        entries = 0;
        closed = false;
      }
    in
    (match fault with
    | Some f -> Store_fault.register f ~path ~size:0
    | None -> ());
    emit w segment_magic;
    w
  in
  if not append then fresh ()
  else if not (Sys.file_exists path) then fresh ()
  else begin
    (* Continue in the newest (highest-index) segment. *)
    let rec highest i =
      if Sys.file_exists (segment_path path (i + 1)) then highest (i + 1)
      else i
    in
    let i = highest 0 in
    let p = segment_path path i in
    let size = file_size p in
    let oc = open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 p in
    (match fault with
    | Some f -> Store_fault.register f ~path:p ~size
    | None -> ());
    {
      base = path;
      segment_bytes;
      fault;
      oc;
      seg_index = i;
      seg_size = size;
      entries = 0;
      closed = false;
    }
  end

let rotate w =
  Stdlib.flush w.oc;
  (match w.fault with
  | Some f -> Store_fault.on_sync f ~path:(segment_path w.base w.seg_index)
  | None -> ());
  close_out w.oc;
  w.seg_index <- w.seg_index + 1;
  let p = segment_path w.base w.seg_index in
  w.oc <- open_out_gen [ Open_wronly; Open_creat; Open_trunc ] 0o644 p;
  (match w.fault with
  | Some f -> Store_fault.register f ~path:p ~size:0
  | None -> ());
  w.seg_size <- 0;
  emit w segment_magic

let write w entry =
  if w.closed then invalid_arg "Journal.write: writer is closed";
  let frame = encode_frame (Json.to_string (entry_to_json entry)) in
  if
    w.seg_size + String.length frame > w.segment_bytes
    && w.seg_size > String.length segment_magic
  then rotate w;
  emit w frame;
  w.entries <- w.entries + 1

let flush w =
  if not w.closed then begin
    Stdlib.flush w.oc;
    match w.fault with
    | Some f -> Store_fault.on_sync f ~path:(segment_path w.base w.seg_index)
    | None -> ()
  end

let close_writer w =
  if not w.closed then begin
    flush w;
    w.closed <- true;
    close_out w.oc
  end

(* Crash-path close: drop the channel without touching the file again —
   the simulated-death state on disk must stay exactly as the fault
   device left it. *)
let abort_writer w =
  if not w.closed then begin
    w.closed <- true;
    close_out_noerr w.oc
  end

let entries_written w = w.entries

(* ------------------------------------------------------------------ *)
(* Tolerant reader.                                                    *)

type corrupt_frame = { cf_segment : int; cf_offset : int; cf_reason : string }

type report = {
  entries : entry list;
  corrupt : corrupt_frame list;
  frames : int;
  segments : int;
  legacy : bool;
}

let corrupt_frame_to_json cf =
  Json.Obj
    [
      ("segment", Json.Int cf.cf_segment);
      ("offset", Json.Int cf.cf_offset);
      ("reason", Json.String cf.cf_reason);
    ]

let report_to_json r =
  Json.Obj
    [
      ("frames", Json.Int r.frames);
      ("segments", Json.Int r.segments);
      ("legacy", Json.Bool r.legacy);
      ("corrupt", Json.List (List.map corrupt_frame_to_json r.corrupt));
    ]

(* Parse one segment's bytes. Good frames append through [k_entry];
   damage is reported through [k_corrupt] and the scan resyncs on the
   next frame magic, so one flipped byte costs one frame, not the
   journal suffix. A torn tail (frame header or payload past EOF) ends
   the segment — that is the normal crash-mid-append shape. *)
let parse_segment ~seg data k_entry k_corrupt =
  let len = String.length data in
  let frames = ref 0 in
  let magic_len = String.length segment_magic in
  let start =
    if len = 0 then len (* crash right after create: empty = no frames *)
    else if len < magic_len then begin
      k_corrupt { cf_segment = seg; cf_offset = 0; cf_reason = "torn segment header" };
      len
    end
    else if String.sub data 0 magic_len <> segment_magic then begin
      k_corrupt { cf_segment = seg; cf_offset = 0; cf_reason = "bad segment header" };
      len
    end
    else magic_len
  in
  let pos = ref start in
  let resync ~at ~from reason =
    k_corrupt { cf_segment = seg; cf_offset = at; cf_reason = reason };
    let i = ref (max from (at + 1)) in
    let found = ref (-1) in
    while !found < 0 && !i < len - 1 do
      if data.[!i] = 'N' && data.[!i + 1] = 'J' then found := !i else incr i
    done;
    pos := if !found >= 0 then !found else len
  in
  while !pos < len do
    let at = !pos in
    if len - at < frame_header_bytes then begin
      k_corrupt
        { cf_segment = seg; cf_offset = at; cf_reason = "torn frame header" };
      pos := len
    end
    else if not (data.[at] = 'N' && data.[at + 1] = 'J') then
      resync ~at ~from:(at + 1) "framing lost"
    else begin
      let plen = rd_le32 data (at + 2) in
      let crc = rd_le32 data (at + 6) in
      if plen < 0 || plen > max_frame_payload then
        resync ~at ~from:(at + 2) "implausible frame length"
      else if at + frame_header_bytes + plen > len then begin
        k_corrupt
          { cf_segment = seg; cf_offset = at; cf_reason = "torn frame payload" };
        pos := len
      end
      else begin
        let payload = String.sub data (at + frame_header_bytes) plen in
        if crc32 payload <> crc then
          (* The length field is untrusted once the CRC fails. *)
          resync ~at ~from:(at + 2) "crc mismatch"
        else begin
          (match
             let* j = Json.of_string payload in
             entry_of_json j
           with
          | Ok e ->
              k_entry e;
              incr frames
          | Error m ->
              k_corrupt
                {
                  cf_segment = seg;
                  cf_offset = at;
                  cf_reason = "payload decode: " ^ m;
                });
          pos := at + frame_header_bytes + plen
        end
      end
    end
  done;
  !frames

(* Pre-WAL (JSONL) journals still load: one entry per line, and a torn
   or malformed tail is reported instead of erroring the whole read. *)
let parse_legacy data k_entry k_corrupt =
  let frames = ref 0 in
  let lines = String.split_on_char '\n' data in
  let stop = ref false in
  List.iteri
    (fun i line ->
      if (not !stop) && String.trim line <> "" then
        match
          let* j = Json.of_string line in
          entry_of_json j
        with
        | Ok e ->
            k_entry e;
            incr frames
        | Error m ->
            k_corrupt
              {
                cf_segment = 0;
                cf_offset = i + 1;
                cf_reason = Printf.sprintf "line %d: %s" (i + 1) m;
              };
            stop := true)
    lines;
  !frames

let read_whole ?fault path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
      let data = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Ok
        (match fault with
        | None -> data
        | Some f -> Store_fault.on_read f ~path data)

let read_report ?fault path =
  let* data0 = read_whole ?fault path in
  let entries_rev = ref [] in
  let corrupt_rev = ref [] in
  let k_entry e = entries_rev := e :: !entries_rev in
  let k_corrupt c = corrupt_rev := c :: !corrupt_rev in
  let magic_len = String.length segment_magic in
  let legacy =
    String.length data0 > 0
    && (String.length data0 < magic_len
       || String.sub data0 0 magic_len <> segment_magic)
    && data0.[0] = '{'
  in
  let frames = ref 0 in
  let segments = ref 1 in
  if legacy then frames := parse_legacy data0 k_entry k_corrupt
  else begin
    frames := parse_segment ~seg:0 data0 k_entry k_corrupt;
    let i = ref 1 in
    let continue = ref true in
    while !continue do
      let p = segment_path path !i in
      if not (Sys.file_exists p) then continue := false
      else begin
        (match read_whole ?fault p with
        | Error _ -> ()
        | Ok data -> frames := !frames + parse_segment ~seg:!i data k_entry k_corrupt);
        incr segments;
        incr i
      end
    done
  end;
  Ok
    {
      entries = List.rev !entries_rev;
      corrupt = List.rev !corrupt_rev;
      frames = !frames;
      segments = !segments;
      legacy;
    }

let read path =
  let* r = read_report path in
  Ok r.entries

(* Group a journal into completed ticks. Entries for one tick are its
   [Arrive]s followed by the [Tick_done] commit marker; a trailing run
   of [Arrive]s without a marker is a tick that crashed mid-flight and
   is discarded — on resume the deterministic source regenerates those
   arrivals exactly. *)
let committed_ticks entries =
  let rec go cur acc = function
    | [] -> List.rev acc
    | Arrive { tick; request } :: rest -> go ((tick, request) :: cur) acc rest
    | Tick_done tick :: rest ->
        let mine =
          List.rev_map snd (List.filter (fun (t, _) -> t = tick) cur)
        in
        let others = List.filter (fun (t, _) -> t <> tick) cur in
        go others ((tick, mine) :: acc) rest
  in
  go [] [] entries

let write_committed w ~below groups =
  List.iter
    (fun (tick, reqs) ->
      if tick < below then begin
        List.iter (fun request -> write w (Arrive { tick; request })) reqs;
        write w (Tick_done tick)
      end)
    groups;
  flush w

type commits = Empty | Committed of int

let last_commit entries =
  List.fold_left
    (fun acc e ->
      match e with
      | Tick_done t -> (
          match acc with
          | Empty -> Committed t
          | Committed u -> Committed (max t u))
      | Arrive _ -> acc)
    Empty entries
