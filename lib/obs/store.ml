(* The one storage layer. Record logs are CRC32-framed segment chains
   read back by one resyncing reader; whole files are published by
   write-then-rename. The optional Store_fault device is consulted
   here and nowhere else. *)

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* CRC32 (IEEE 802.3 reflected polynomial, table-driven).              *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

(* CRC of the span [pos, pos + len) of [s]; callers keep it inside [s]. *)
let crc32 s ~pos ~len =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c :=
      Array.unsafe_get table ((!c lxor Char.code s.[i]) land 0xff)
      lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

(* ------------------------------------------------------------------ *)
(* Frame format.
   Segment  = "NUWAL002" header, then frames back to back.
   Frame    = 'N' 'J' | u32-LE payload length | u32-LE CRC32(payload)
              | payload. *)

let segment_magic = "NUWAL002"
let magic_bytes = String.length segment_magic
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
  add_le32 b (crc32 payload ~pos:0 ~len:(String.length payload));
  Buffer.add_string b payload;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Writer: segment 0 is the log path itself, later segments are
   path.segN — newest is the highest index, so a plain file name keeps
   working while long runs rotate.                                     *)

let segment_path base i =
  if i = 0 then base else Printf.sprintf "%s.seg%d" base i

let segment_bytes = 4 * 1024 * 1024

type writer = {
  base : string;
  fault : Store_fault.t option;
  mutable oc : out_channel;
  mutable seg_index : int;
  mutable seg_size : int;
  mutable records : int;
  mutable closed : bool;
}

(* Write [data] to [oc] as the fault device lets it. With a device
   attached, every write is OS-flushed immediately: durability is
   modelled by the device's durable/written accounting, not by channel
   buffering, so a simulated crash sees exactly the bytes the model says
   are on disk. A torn write puts its prefix on disk, then crashes. *)
let put fault oc ~path ~torn data =
  match fault with
  | None -> output_string oc data
  | Some f ->
      let bytes, tear =
        match Store_fault.on_append f ~path data with
        | Store_fault.Write bytes -> (bytes, false)
        | Store_fault.Torn prefix -> (prefix, true)
      in
      output_string oc bytes;
      Stdlib.flush oc;
      Store_fault.note_written f ~path (String.length bytes);
      if tear then Store_fault.crash f ~reason:torn

let emit w data =
  put w.fault w.oc ~path:(segment_path w.base w.seg_index) ~torn:"torn write"
    data;
  w.seg_size <- w.seg_size + String.length data

(* Every segment and published file is written fresh, from size 0. *)
let open_segment ?fault path =
  let oc = open_out_gen [ Open_wronly; Open_creat; Open_trunc ] 0o644 path in
  Option.iter (fun f -> Store_fault.register f ~path ~size:0) fault;
  oc

let remove_stale_segments base =
  let i = ref 1 in
  while Sys.file_exists (segment_path base !i) do
    Sys.remove (segment_path base !i);
    incr i
  done

let open_writer ?fault path =
  remove_stale_segments path;
  let w =
    {
      base = path;
      fault;
      oc = open_segment ?fault path;
      seg_index = 0;
      seg_size = 0;
      records = 0;
      closed = false;
    }
  in
  emit w segment_magic;
  w

let sync w =
  Stdlib.flush w.oc;
  Option.iter
    (fun f -> Store_fault.on_sync f ~path:(segment_path w.base w.seg_index))
    w.fault

let rotate w =
  sync w;
  close_out w.oc;
  w.seg_index <- w.seg_index + 1;
  w.oc <-
    open_segment ?fault:w.fault (segment_path w.base w.seg_index);
  w.seg_size <- 0;
  emit w segment_magic

let append w payload =
  if w.closed then invalid_arg "Store.append: writer is closed";
  let frame = encode_frame payload in
  if
    w.seg_size + String.length frame > segment_bytes
    && w.seg_size > magic_bytes
  then rotate w;
  emit w frame;
  w.records <- w.records + 1

let flush w = if not w.closed then sync w

let close w =
  if not w.closed then begin
    sync w;
    w.closed <- true;
    close_out w.oc
  end

(* Crash-path close: drop the channel without touching the file again —
   the simulated-death state on disk must stay exactly as the fault
   device left it. *)
let abort w =
  if not w.closed then begin
    w.closed <- true;
    close_out_noerr w.oc
  end

let records_written w = w.records

(* ------------------------------------------------------------------ *)
(* Tolerant reader.                                                    *)

type corrupt_frame = {
  cf_segment : int;
  cf_offset : int;
  cf_reason : string;
  cf_torn : bool;
}

type 'a report = {
  entries : 'a list;
  corrupt : corrupt_frame list;
  frames : int;
  segments : int;
}

let corrupt_frame_to_json cf =
  Json.Obj
    [
      ("segment", Json.Int cf.cf_segment);
      ("offset", Json.Int cf.cf_offset);
      ("reason", Json.String cf.cf_reason);
      ("torn", Json.Bool cf.cf_torn);
    ]

let report_to_json r =
  Json.Obj
    [
      ("frames", Json.Int r.frames);
      ("segments", Json.Int r.segments);
      ("corrupt", Json.List (List.map corrupt_frame_to_json r.corrupt));
    ]

(* Parse one segment's bytes. Good frames go to [k_entry]; damage is
   reported through [k_corrupt] and the scan resyncs on the next frame
   magic, so one flipped byte costs one frame, not the log suffix. A
   torn tail — the segment ends inside a header or frame and no intact
   frame follows — ends the segment: the normal crash-mid-append
   shape. A frame that claims to run past the end while an intact
   frame follows it is a damaged length, not a tear. *)
let parse_segment ~seg ~decode data k_entry k_corrupt =
  let len = String.length data in
  let frames = ref 0 in
  let report ?(torn = false) at reason =
    k_corrupt
      { cf_segment = seg; cf_offset = at; cf_reason = reason; cf_torn = torn }
  in
  let is_magic i = i < len - 1 && data.[i] = 'N' && data.[i + 1] = 'J' in
  let rec next_magic i =
    if i >= len - 1 then len else if is_magic i then i else next_magic (i + 1)
  in
  let payload_len at = rd_le32 data (at + 2) in
  let intact at =
    len - at >= frame_header_bytes
    &&
    let plen = payload_len at in
    plen <= max_frame_payload
    && at + frame_header_bytes + plen <= len
    && crc32 data ~pos:(at + frame_header_bytes) ~len:plen
       = rd_le32 data (at + 6)
  in
  let rec next_intact i =
    let p = next_magic i in
    if p >= len || intact p then p else next_intact (p + 1)
  in
  let rec scan at =
    if at >= len then ()
    else if len - at < frame_header_bytes then
      report ~torn:true at "torn frame header"
    else if not (is_magic at) then begin
      report at "framing lost";
      scan (next_magic (at + 1))
    end
    else
      let plen = payload_len at in
      if plen > max_frame_payload then begin
        report at "implausible frame length";
        scan (next_magic (at + 2))
      end
      else if at + frame_header_bytes + plen > len then begin
        match next_intact (at + 2) with
        | p when p >= len -> report ~torn:true at "torn frame payload"
        | p ->
            report at "frame length past end of segment";
            scan p
      end
      else if
        crc32 data ~pos:(at + frame_header_bytes) ~len:plen
        <> rd_le32 data (at + 6)
      then begin
        (* The length field is untrusted once the CRC fails. *)
        report at "crc mismatch";
        scan (next_magic (at + 2))
      end
      else begin
        (match decode (String.sub data (at + frame_header_bytes) plen) with
        | Ok e ->
            k_entry e;
            incr frames
        | Error m -> report at ("payload decode: " ^ m));
        scan (at + frame_header_bytes + plen)
      end
  in
  if len = 0 then () (* crash right after create: empty = no frames *)
  else if len < magic_bytes then report ~torn:true 0 "torn segment header"
  else if String.sub data 0 magic_bytes <> segment_magic then begin
    report 0 "bad segment header";
    scan (next_magic 0)
  end
  else scan magic_bytes;
  !frames

let read_file ?fault path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | data ->
      Ok
        (match fault with
        | None -> data
        | Some f -> Store_fault.on_read f ~path data)

let read_report ?fault ~decode path =
  let* data0 = read_file ?fault path in
  let entries_rev = ref [] in
  let corrupt_rev = ref [] in
  let k_entry e = entries_rev := e :: !entries_rev in
  let k_corrupt c = corrupt_rev := c :: !corrupt_rev in
  let parse seg data = parse_segment ~seg ~decode data k_entry k_corrupt in
  let rec rest frames i =
    let p = segment_path path i in
    if not (Sys.file_exists p) then (frames, i)
    else
      let n =
        match read_file ?fault p with Error _ -> 0 | Ok data -> parse i data
      in
      rest (frames + n) (i + 1)
  in
  let frames, segments = rest (parse 0 data0) 1 in
  Ok
    {
      entries = List.rev !entries_rev;
      corrupt = List.rev !corrupt_rev;
      frames;
      segments;
    }

(* ------------------------------------------------------------------ *)
(* Whole files.                                                        *)

(* Rename alone makes the swap atomic but not durable: on power loss
   the directory entry can still point at nothing. *)
let sync_dir path =
  match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      Unix.close fd

let rename ?fault src dst =
  Sys.rename src dst;
  Option.iter (fun f -> Store_fault.note_rename f ~src ~dst) fault

let rec mkdir_p dir =
  if dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* Write-then-rename: a crash mid-publish leaves the previous file
   intact, never a torn one. The file is fsynced before the rename and
   the directory after it, so the swap is durable, not just atomic. *)
let publish ?fault path data =
  let tmp = path ^ ".tmp" in
  let oc = open_segment ?fault tmp in
  (try put fault oc ~path:tmp ~torn:"torn publish" data
   with e ->
     close_out_noerr oc;
     raise e);
  Stdlib.flush oc;
  (match fault with
  | None -> (
      try Unix.fsync (Unix.descr_of_out_channel oc)
      with Unix.Unix_error _ -> ())
  | Some f -> Store_fault.on_sync f ~path:tmp);
  close_out oc;
  rename ?fault tmp path;
  sync_dir path
