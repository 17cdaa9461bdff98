module Counters = Nu_obs.Counters

(* Persistent probe-worker pool: [n_workers] long-lived domains, each
   holding a log-synchronised mirror of the shared state (see the
   interface comment for the protocol).

   Batch handoff is a single atomic cell carrying an epoch-stamped job.
   The job's work closure erases the per-call item/result types, so the
   worker loop itself is monomorphic: it replays the batch's committed
   ops into its mirror, runs the closure on the mirror, parks its drained
   counter delta in its slot, and bumps the completion count. Epochs
   only ever advance by one (map is serial on the owner domain), so
   "epoch different from the last one I ran" is exactly "a new batch".

   Memory ordering: the owner publishes the job with an atomic set
   (release) and workers read it with an atomic get (acquire); workers
   write results and counter slots before the atomic completion
   increment, and the owner reads them only after observing the count —
   every non-atomic write is ordered by an atomic edge.

   The owner domain is always one of the lanes, probing the live state
   directly — both a free worker and insurance that no domain sits in a
   blocking join while others allocate (a blocked domain answers
   stop-the-world requests through its backup thread, a slow futex
   handshake on older kernels; a spinning or working domain answers at
   its next poll point). *)

type job = {
  j_epoch : int;
  j_batch : Net_state.batch;
  j_run : Net_state.t -> unit;
}

type msg = Run of job | Quit

type t = {
  net : Net_state.t;
  n_workers : int;
  cursor : Net_state.cursor option;  (* [net]'s log, while workers run *)
  mutable doms : unit Domain.t array;
  cell : msg option Atomic.t;
  done_c : int Atomic.t;  (* cumulative worker completions *)
  deltas : Counters.snapshot option array;  (* per-worker, per batch *)
  mutable epoch : int;
  mutable closed : bool;
}

let worker_loop pool ix ready =
  Nu_obs.Obs_domain.enter_worker ();
  let mirror = Net_state.snapshot pool.net in
  Atomic.incr ready;
  let rec loop seen =
    match Atomic.get pool.cell with
    | Some (Run j) when j.j_epoch <> seen ->
        Net_state.apply_batch mirror j.j_batch;
        j.j_run mirror;
        pool.deltas.(ix) <- Some (Counters.drain ());
        Atomic.incr pool.done_c;
        loop j.j_epoch
    | Some Quit -> ()
    | Some (Run _) | None ->
        Domain.cpu_relax ();
        loop seen
  in
  loop 0

let create ~domains ~net =
  let n_workers = max 0 (domains - 1) in
  (* The path memo is filled before the mirrors are taken: they share it
     read-only, and the owner lane probes [net] itself, so a miss there
     would write the table while the workers read it. The cursor opens
     before the mirrors are taken and the caller is parked below until
     they all exist, so no committed op can fall in the gap between a
     mirror's snapshot and the first drained batch. The cursor is
     unbounded: a mirror has no way to re-sync. *)
  let cursor =
    if n_workers > 0 then begin
      Net_state.warm_all_paths net;
      Some (Net_state.open_cursor net ~bounded:false)
    end
    else None
  in
  let pool =
    {
      net;
      n_workers;
      cursor;
      doms = [||];
      cell = Atomic.make None;
      done_c = Atomic.make 0;
      deltas = Array.make (max 1 n_workers) None;
      epoch = 0;
      closed = false;
    }
  in
  let ready = Atomic.make 0 in
  pool.doms <-
    Array.init n_workers (fun ix ->
        Domain.spawn (fun () -> worker_loop pool ix ready));
  while Atomic.get ready < n_workers do
    Domain.cpu_relax ()
  done;
  pool


let map pool ~f items =
  if pool.closed then invalid_arg "Probe_pool.map: pool is shut down";
  let n = Array.length items in
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    let cursor = Atomic.make 0 in
    let run_lane lane =
      let rec claim () =
        let i = Atomic.fetch_and_add cursor 1 in
        if i < n then begin
          results.(i) <- Some (f lane items.(i));
          claim ()
        end
      in
      claim ()
    in
    Option.iter
      (fun c ->
        let batch = Net_state.drain_batch pool.net c in
        pool.epoch <- pool.epoch + 1;
        Atomic.set pool.cell
          (Some (Run { j_epoch = pool.epoch; j_batch = batch; j_run = run_lane })))
      pool.cursor;
    Nu_obs.Obs_domain.quietly (fun () -> run_lane pool.net);
    if pool.n_workers > 0 then begin
      let target = pool.n_workers * pool.epoch in
      while Atomic.get pool.done_c < target do
        Domain.cpu_relax ()
      done;
      Array.iteri
        (fun ix d ->
          match d with
          | Some delta ->
              Counters.absorb delta;
              pool.deltas.(ix) <- None
          | None -> ())
        pool.deltas
    end;
    Array.map
      (function
        | Some v -> v
        | None -> invalid_arg "Probe_pool.map: unfilled result slot")
      results
  end

let shutdown pool =
  if not pool.closed then begin
    pool.closed <- true;
    if pool.n_workers > 0 then begin
      Atomic.set pool.cell (Some Quit);
      Array.iter Domain.join pool.doms
    end;
    Option.iter (Net_state.close_cursor pool.net) pool.cursor
  end
