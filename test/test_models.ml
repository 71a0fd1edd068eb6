(* Tests for the eight benchmark models: structural sanity, functional
   spot-checks of each model's core behaviour, and the state-dependent
   patterns the paper builds its argument on. *)

module V = Slim.Value
module Exec = Slim.Exec
module Branch = Slim.Branch

let check = Alcotest.check
let vi i = V.Int i
let vb b = V.Bool b
let vr r = V.Real r

let init prog = Exec.initial_state (Exec.handle prog)

(* One step of [prog] through its handle; the outputs come back with
   the handle, for [get] to look them up by name. *)
let step prog st ins =
  let ex = Exec.handle prog in
  let out, st' = Exec.run_step ex st (Exec.inputs_of_list ex ins) in
  ((ex, out), st')

let get (ex, out) name = Exec.find_output ex out name

(* --- structural sanity over the whole suite --------------------------- *)

let test_all_models_valid () =
  List.iter
    (fun (e : Models.Registry.entry) ->
      let prog = e.Models.Registry.program () in
      (* compiles, type checks (done at build), has sensible structure *)
      Slim.Ir.type_check prog;
      let ex = Exec.handle prog in
      let branches = Exec.n_branches ex in
      check Alcotest.bool
        (e.Models.Registry.name ^ " has a real branch structure")
        true
        (branches >= 30);
      (* decision ids are dense and unique *)
      let ids = List.init (Exec.n_decisions ex) (Exec.decision_id ex) in
      check Alcotest.bool (e.Models.Registry.name ^ " dense decision ids")
        true
        (List.sort compare ids = List.init (List.length ids) Fun.id))
    Models.Registry.entries

let test_all_models_simulate () =
  (* every model survives 50 random steps from its initial state *)
  List.iter
    (fun (e : Models.Registry.entry) ->
      let prog = e.Models.Registry.program () in
      let ex = Exec.handle prog in
      let rng = Random.State.make [| 99 |] in
      let st = ref (Exec.initial_state ex) in
      for _ = 1 to 50 do
        let _, st' = Exec.run_step ex !st (Exec.random_inputs rng ex) in
        st := st'
      done)
    Models.Registry.entries

let test_snapshot_determinism () =
  (* re-running the same input from the same snapshot is bit-identical *)
  List.iter
    (fun (e : Models.Registry.entry) ->
      let prog = e.Models.Registry.program () in
      let ex = Exec.handle prog in
      let rng = Random.State.make [| 3 |] in
      let ins = Exec.random_inputs rng ex in
      let st = Exec.initial_state ex in
      let _, s1 = Exec.run_step ex st ins in
      let _, s2 = Exec.run_step ex st ins in
      check Alcotest.bool (e.Models.Registry.name ^ " deterministic") true
        (Exec.state_equal s1 s2))
    Models.Registry.entries

(* --- CPUTask ----------------------------------------------------------- *)

let cputask = Models.Cputask.program ()

let test_cputask_add_then_delete () =
  let st0 = init cputask in
  let add id =
    [ ("op", vi 1); ("id", vi id); ("prio", vi 3); ("deadline", vi 10) ]
  in
  let out1, st1 = step cputask st0 (add 7) in
  check Alcotest.int "add ok" 1 (V.to_int (get out1 "status"));
  check Alcotest.int "count 1" 1 (V.to_int (get out1 "queue_count"));
  (* delete the same id succeeds only because the state holds it *)
  let out2, st2 =
    step cputask st1 [ ("op", vi 2); ("id", vi 7); ("prio", vi 0); ("deadline", vi 0) ]
  in
  check Alcotest.int "delete ok" 1 (V.to_int (get out2 "status"));
  (* deleting again fails: not found *)
  let out3, _ =
    step cputask st2 [ ("op", vi 2); ("id", vi 7); ("prio", vi 0); ("deadline", vi 0) ]
  in
  check Alcotest.int "delete misses" 4 (V.to_int (get out3 "status"))

let test_cputask_duplicate_and_full () =
  let st = ref (init cputask) in
  let add id =
    let out, st' =
      step cputask !st
        [ ("op", vi 1); ("id", vi id); ("prio", vi 1); ("deadline", vi 5) ]
    in
    st := st';
    V.to_int (get out "status")
  in
  check Alcotest.int "first add" 1 (add 10);
  check Alcotest.int "duplicate rejected" 3 (add 10);
  check Alcotest.int "add 2" 1 (add 11);
  check Alcotest.int "add 3" 1 (add 12);
  check Alcotest.int "add 4" 1 (add 13);
  check Alcotest.int "add 5" 1 (add 14);
  check Alcotest.int "queue full" 2 (add 15)

let test_cputask_dispatch_preemption () =
  let st = ref (init cputask) in
  let add id prio =
    let out, st' =
      step cputask !st
        [ ("op", vi 1); ("id", vi id); ("prio", vi prio); ("deadline", vi 5) ]
    in
    st := st';
    out
  in
  let out1 = add 5 2 in
  check Alcotest.int "task 5 runs" 5 (V.to_int (get out1 "running_task"));
  let out2 = add 9 6 in
  check Alcotest.int "higher prio preempts" 9
    (V.to_int (get out2 "running_task"))

(* --- NICProtocol -------------------------------------------------------- *)

let nic = Models.Nicprotocol.program ()

let test_nic_session_token () =
  let st = ref (init nic) in
  let send frame crc seq token =
    let out, st' =
      step nic !st
        [ ("frame", vi frame); ("crc_ok", vb crc); ("seq", vi seq);
          ("token", vi token) ]
    in
    st := st';
    out
  in
  (* two clean beacons bring the link to Negotiate *)
  ignore (send 1 true 0 0);
  let o = send 1 true 0 0 in
  check Alcotest.int "negotiate" 1 (V.to_int (get o "link"));
  (* auth request grants token 1234 *)
  let o = send 2 true 0 1234 in
  check Alcotest.int "auth" 2 (V.to_int (get o "link"));
  (* ack with the wrong token goes to Error *)
  let o = send 3 true 0 999 in
  check Alcotest.int "hijack -> error" 4 (V.to_int (get o "link"));
  (* recover via beacon, re-auth, ack with the right token *)
  ignore (send 1 true 0 0);
  ignore (send 2 true 0 77);
  let o = send 3 true 0 77 in
  check Alcotest.int "up" 3 (V.to_int (get o "link"))

let test_nic_sequence_window () =
  let st = ref (init nic) in
  let send frame crc seq token =
    let out, st' =
      step nic !st
        [ ("frame", vi frame); ("crc_ok", vb crc); ("seq", vi seq);
          ("token", vi token) ]
    in
    st := st';
    out
  in
  ignore (send 1 true 0 0);
  ignore (send 1 true 0 0);
  ignore (send 2 true 0 42);
  ignore (send 3 true 0 42);
  (* in Up: data with seq=0 (expected) accepted; wrong seq dropped *)
  let o = send 4 true 0 42 in
  check Alcotest.int "in-order accepted" 1 (V.to_int (get o "accepted"));
  let o = send 4 true 5 42 in
  check Alcotest.int "out-of-order dropped" 1 (V.to_int (get o "dropped"));
  let o = send 4 true 1 42 in
  check Alcotest.int "next in sequence accepted" 2
    (V.to_int (get o "accepted"))

(* --- TCP ----------------------------------------------------------------- *)

let tcp = Models.Tcp.program ()

let tcp_send st ?(syn = false) ?(ack = false) ?(fin = false) ?(rst = false)
    ?(seq = 0) ?(ackno = 0) ?(listen = false) ?(close = false) port =
  step tcp st
    [
      ("port", vi port); ("syn", vb syn); ("ack", vb ack); ("fin", vb fin);
      ("rst", vb rst); ("seq", vi seq); ("ackno", vi ackno);
      ("listen_cmd", vb listen); ("close_cmd", vb close);
    ]

let test_tcp_handshake () =
  let st0 = init tcp in
  let _, st1 = tcp_send st0 ~listen:true 0 in
  (* SYN with client seq 9: server ISN = (9*7+3) mod 64 = 2 *)
  let out, st2 = tcp_send st1 ~syn:true ~seq:9 0 in
  check Alcotest.int "syn-ack sent" 1 (V.to_int (get out "synack_tx"));
  (* the completing ACK must carry ackno = ISN+1 = 3 and seq = 10 *)
  let out, st3 = tcp_send st2 ~ack:true ~seq:10 ~ackno:3 0 in
  check Alcotest.int "established" 1 (V.to_int (get out "established"));
  check Alcotest.int "one active" 1 (V.to_int (get out "active_conns"));
  (* wrong ackno would NOT have established: replay from st2 *)
  let out_bad, _ = tcp_send st2 ~ack:true ~seq:10 ~ackno:4 0 in
  check Alcotest.int "bad ack rejected" 1 (V.to_int (get out_bad "bad_ack"));
  (* teardown: FIN moves to CLOSE_WAIT *)
  let out, _ = tcp_send st3 ~fin:true 0 in
  check Alcotest.int "fin received" 1 (V.to_int (get out "fin_rx"))

let test_tcp_slots_independent () =
  let st0 = init tcp in
  let _, st1 = tcp_send st0 ~listen:true 0 in
  let _, st2 = tcp_send st1 ~listen:true 3 in
  let _, st3 = tcp_send st2 ~syn:true ~seq:5 0 in
  (* slot 3 is still LISTEN; slot 0 is SYN_RCVD *)
  (match Exec.find_state (Exec.handle tcp) st3 "cstate" with
   | V.Vec a ->
     check Alcotest.int "slot0 syn-rcvd" 2 (V.to_int a.(0));
     check Alcotest.int "slot3 listening" 1 (V.to_int a.(3))
   | _ -> Alcotest.fail "cstate not a vector")

let test_tcp_syn_timeout () =
  let st0 = init tcp in
  let _, st1 = tcp_send st0 ~listen:true 1 in
  let _, st = tcp_send st1 ~syn:true ~seq:0 1 in
  (* let the half-open handshake time out (timer = 8) *)
  let st = ref st in
  let timeouts = ref 0 in
  for _ = 1 to 10 do
    let out, st' = tcp_send !st 0 in
    st := st';
    (* outputs are per-step: remember whether the expiry ever fired *)
    timeouts := max !timeouts (V.to_int (get out "timeouts"))
  done;
  check Alcotest.int "half-open timed out" 1 !timeouts;
  match Exec.find_state (Exec.handle tcp) !st "cstate" with
  | V.Vec a -> check Alcotest.int "back to listen" 1 (V.to_int a.(1))
  | _ -> Alcotest.fail "cstate not a vector"

(* --- LANSwitch ----------------------------------------------------------- *)

let lan = Models.Lanswitch.program ()

let lan_frame st ?(valid = true) ~src ~dst ~port ~vlan () =
  step lan st
    [
      ("valid", vb valid); ("src", vi src); ("dst", vi dst);
      ("in_port", vi port); ("vlan", vi vlan);
    ]

let test_lanswitch_learn_forward () =
  let st0 = init lan in
  (* unknown destination floods *)
  let out, st1 = lan_frame st0 ~src:100 ~dst:200 ~port:0 ~vlan:0 () in
  check Alcotest.int "flood unknown" 3 (V.to_int (get out "action"));
  (* station 200 talks from port 1: learned *)
  let out, st2 = lan_frame st1 ~src:200 ~dst:100 ~port:1 ~vlan:0 () in
  check Alcotest.int "forward to learned port" 1 (V.to_int (get out "action"));
  check Alcotest.int "egress 0" 0 (V.to_int (get out "egress"));
  (* now 100 -> 200 forwards to port 1 *)
  let out, _ = lan_frame st2 ~src:100 ~dst:200 ~port:0 ~vlan:0 () in
  check Alcotest.int "forward" 1 (V.to_int (get out "action"));
  check Alcotest.int "egress 1" 1 (V.to_int (get out "egress"))

let test_lanswitch_vlan_isolation () =
  let st0 = init lan in
  (* port 3 is only a member of vlan 0: vlan 2 traffic is dropped *)
  let out, _ = lan_frame st0 ~src:5 ~dst:6 ~port:3 ~vlan:2 () in
  check Alcotest.int "vlan violation dropped" 0 (V.to_int (get out "action"))

let test_lanswitch_filter_same_port () =
  let st0 = init lan in
  let _, st1 = lan_frame st0 ~src:300 ~dst:0 ~port:2 ~vlan:1 () in
  (* destination on the ingress port: filtered *)
  let out, _ = lan_frame st1 ~src:301 ~dst:300 ~port:2 ~vlan:1 () in
  check Alcotest.int "filtered" 2 (V.to_int (get out "action"))

(* --- LEDLC ---------------------------------------------------------------- *)

let ledlc = Models.Ledlc.program ()

let led_cmd st ?(enable = true) ~bank ~cmd ~level ~budget () =
  let checksum = (bank * 29) + (cmd * 5) + level + 11 in
  step ledlc st
    [
      ("enable", vb enable); ("bank", vi bank); ("cmd", vi cmd);
      ("level", vi level); ("budget", vi budget); ("check", vi checksum);
    ]

let test_ledlc_checksum_gate () =
  let st0 = init ledlc in
  (* correct checksum applies the command *)
  let out, _st1 = led_cmd st0 ~bank:1 ~cmd:3 ~level:3 ~budget:100 () in
  check Alcotest.int "bank 1 drawing current" 9
    (V.to_int (get out "total_current"));
  (* wrong checksum is ignored *)
  let out, _ =
    step ledlc st0
      [
        ("enable", vb true); ("bank", vi 1); ("cmd", vi 3); ("level", vi 3);
        ("budget", vi 100); ("check", vi 0);
      ]
  in
  check Alcotest.int "bad checksum ignored" 0
    (V.to_int (get out "total_current"))

let test_ledlc_overload_shedding () =
  let st = ref (init ledlc) in
  (* light all four banks to high with a generous budget *)
  for bank = 0 to 3 do
    let _, st' = led_cmd !st ~bank ~cmd:3 ~level:3 ~budget:120 () in
    st := st'
  done;
  (* now tighten the budget: the controller sheds the brightest bank *)
  let out, _ = led_cmd !st ~bank:0 ~cmd:0 ~level:0 ~budget:20 () in
  check Alcotest.bool "overload raised" true (V.to_bool (get out "overload"))

let test_ledlc_dead_default_never_fires () =
  (* execute many random steps; the switch-case defaults (dead logic)
     must never be hit *)
  let tracker = Coverage.Tracker.create ledlc in
  let rng = Random.State.make [| 5 |] in
  let ex = Exec.handle ledlc in
  let st = ref (Exec.initial_state ex) in
  for _ = 1 to 300 do
    let _, st' =
      Exec.run_step ~on_event:(Coverage.Tracker.observe tracker) ex !st
        (Exec.random_inputs rng ex)
    in
    st := st'
  done;
  let uncovered = Coverage.Tracker.uncovered_branches tracker in
  (* the four bank-current defaults are among the uncovered *)
  let defaults =
    List.filter (fun (b : Branch.t) -> b.outcome = Branch.Default) uncovered
  in
  check Alcotest.bool "dead defaults stay uncovered" true
    (List.length defaults >= 4)

(* --- UTPC ------------------------------------------------------------------ *)

let utpc = Models.Utpc.program ()

let utpc_step st ?(power = true) ?(arm = false) ?(code = 0) ?(clear = false)
    ?(cmd = 0.0) () =
  step utpc st
    ([
       ("power_on", vb power); ("arm", vb arm); ("arm_code", vi code);
       ("clear", vb clear);
     ]
    @ List.concat_map
        (fun k ->
          [
            (Fmt.str "cmd%d" k, vr cmd); (Fmt.str "rpm%d" k, vr 1000.0);
          ])
        [ 0; 1; 2; 3 ])

let test_utpc_rolling_code_interlock () =
  let st0 = init utpc in
  let out, st1 = utpc_step st0 () in
  check Alcotest.int "standby" 1 (V.to_int (get out "mode"));
  (* constant code cannot arm (needs pending+1) *)
  let _, st2 = utpc_step st1 ~arm:true ~code:500 () in
  let out, _ = utpc_step st2 ~arm:true ~code:500 () in
  check Alcotest.int "constant code rejected" 1 (V.to_int (get out "mode"));
  (* incrementing code arms *)
  let _, st3 = utpc_step st1 ~code:500 () in
  let out, _ = utpc_step st3 ~arm:true ~code:501 () in
  check Alcotest.int "rolling code arms" 2 (V.to_int (get out "mode"))

let test_utpc_duty_slew () =
  let st0 = init utpc in
  let _, st1 = utpc_step st0 ~code:10 () in
  let _, st2 = utpc_step st1 ~arm:true ~code:11 () in
  (* one running step at full command: duty is slew-limited to 15 *)
  let out, _ = utpc_step st2 ~arm:true ~code:11 ~cmd:100.0 () in
  check Alcotest.bool "slew limited" true
    (V.to_real (get out "duty0") <= 15.0 +. 1e-9)

(* --- TWC / AFC smoke ---------------------------------------------------- *)

let test_twc_emergency_needs_stop () =
  let twc = Models.Twc.program () in
  let st = ref (init twc) in
  let drive cmd target =
    let out, st' =
      step twc !st
        ([ ("cmd", vi cmd); ("target", vi target); ("rail_wet", vb false) ]
        @ List.map (fun k -> (Fmt.str "w%d" k, vi 0)) [ 0; 1; 2; 3 ])
    in
    st := st';
    out
  in
  ignore (drive 1 100);
  (* accelerate a few steps *)
  for _ = 1 to 5 do ignore (drive 1 100) done;
  let out = drive 3 0 in
  check Alcotest.int "emergency mode" 6 (V.to_int (get out "mode"));
  (* cmd 0 alone does not leave Emergency while still moving *)
  let out = drive 0 0 in
  check Alcotest.int "still emergency while moving" 6
    (V.to_int (get out "mode"));
  (* brake until stopped, then it may return to idle *)
  let rec stop k = if k = 0 then () else begin ignore (drive 0 0); stop (k - 1) end in
  stop 10;
  let out = drive 0 0 in
  check Alcotest.int "idle after full stop" 0 (V.to_int (get out "mode"))

let test_afc_failsafe_latches () =
  let afc = Models.Afc.program () in
  let st = ref (init afc) in
  let drive ?(o2 = 0.5) ?(rpm = 2000.0) ?(coolant = 90.0) ?(reset = false) ()
      =
    let out, st' =
      step afc !st
        [
          ("throttle", vr 30.0); ("rpm", vr rpm); ("o2", vr o2);
          ("coolant", vr coolant); ("reset", vb reset); ("knock", vr 0.0);
        ]
    in
    st := st';
    out
  in
  (* warm up into Normal *)
  for _ = 1 to 6 do ignore (drive ()) done;
  let out = drive () in
  check Alcotest.int "normal mode" 1 (V.to_int (get out "mode"));
  (* pegged O2 while running -> failsafe *)
  let out = drive ~o2:0.99 () in
  check Alcotest.int "failsafe" 3 (V.to_int (get out "mode"));
  (* recovers only with reset and healthy O2 *)
  let out = drive ~o2:0.5 () in
  check Alcotest.int "latched" 3 (V.to_int (get out "mode"));
  let out = drive ~o2:0.5 ~reset:true () in
  check Alcotest.int "reset to startup" 0 (V.to_int (get out "mode"))

let () =
  Alcotest.run "models"
    [
      ( "suite",
        [
          Alcotest.test_case "all valid" `Quick test_all_models_valid;
          Alcotest.test_case "all simulate" `Quick test_all_models_simulate;
          Alcotest.test_case "deterministic" `Quick test_snapshot_determinism;
        ] );
      ( "cputask",
        [
          Alcotest.test_case "add/delete" `Quick test_cputask_add_then_delete;
          Alcotest.test_case "duplicate/full" `Quick test_cputask_duplicate_and_full;
          Alcotest.test_case "dispatch" `Quick test_cputask_dispatch_preemption;
        ] );
      ( "nicprotocol",
        [
          Alcotest.test_case "session token" `Quick test_nic_session_token;
          Alcotest.test_case "sequence window" `Quick test_nic_sequence_window;
        ] );
      ( "tcp",
        [
          Alcotest.test_case "handshake" `Quick test_tcp_handshake;
          Alcotest.test_case "slot isolation" `Quick test_tcp_slots_independent;
          Alcotest.test_case "syn timeout" `Quick test_tcp_syn_timeout;
        ] );
      ( "lanswitch",
        [
          Alcotest.test_case "learn/forward" `Quick test_lanswitch_learn_forward;
          Alcotest.test_case "vlan isolation" `Quick test_lanswitch_vlan_isolation;
          Alcotest.test_case "same-port filter" `Quick test_lanswitch_filter_same_port;
        ] );
      ( "ledlc",
        [
          Alcotest.test_case "checksum gate" `Quick test_ledlc_checksum_gate;
          Alcotest.test_case "overload shed" `Quick test_ledlc_overload_shedding;
          Alcotest.test_case "dead default" `Quick test_ledlc_dead_default_never_fires;
        ] );
      ( "utpc",
        [
          Alcotest.test_case "rolling code" `Quick test_utpc_rolling_code_interlock;
          Alcotest.test_case "duty slew" `Quick test_utpc_duty_slew;
        ] );
      ( "twc/afc",
        [
          Alcotest.test_case "twc emergency" `Quick test_twc_emergency_needs_stop;
          Alcotest.test_case "afc failsafe" `Quick test_afc_failsafe_latches;
        ] );
    ]
