open Remy_sim
open Remy_util

(* Pluggable sender implementations for topology runners.  Every
   backend is one Tcp_sender bank per run; backends differ only in the
   bank's congestion-control plug. *)

type ops = {
  start_flow : unit -> unit;
  handle_ack : Packet.ack -> unit;
  cwnd : unit -> float;
  pacing_gap : unit -> float;
  srtt : unit -> float option;
  flush : unit -> unit;
}

type env = {
  engine : Engine.t;
  pool : Packet.Pool.pool;
  metrics : Metrics.t;
  n_flows : int;
  flow : int;
  workload : Workload.t;
  start : [ `Immediate | `Off_draw ];
  min_rto : float;
  rng : Prng.t;
  transmit : Packet.t -> unit;
}

type factory = env -> ops

let bank make_plug : factory =
  let bank = ref None in
  fun env ->
    let b =
      match !bank with
      | Some b -> b
      | None ->
        let b =
          Tcp_sender.create env.engine ~pool:env.pool ~metrics:env.metrics
            (make_plug env)
        in
        bank := Some b;
        b
    in
    if env.n_flows <> Tcp_sender.n_flows b then
      invalid_arg "Sender_backend.bank: inconsistent n_flows across calls";
    let i = env.flow in
    Tcp_sender.add_flow b i ~workload:env.workload ~start:env.start
      ~min_rto:env.min_rto ~rng:env.rng ~transmit:env.transmit;
    {
      start_flow = (fun () -> Tcp_sender.start b i);
      handle_ack = (fun ack -> Tcp_sender.handle_ack b i ack);
      cwnd = (fun () -> Tcp_sender.cwnd b i);
      pacing_gap = (fun () -> Tcp_sender.pacing_gap b i);
      srtt = (fun () -> Tcp_sender.srtt b i);
      flush = (fun () -> Tcp_sender.flush b);
    }

let records ccs =
  bank (fun env -> Tcp_sender.cc_plug env.engine (Array.map (fun mk -> mk ()) ccs))
