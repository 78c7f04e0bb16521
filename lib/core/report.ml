let hr ppf = Format.fprintf ppf "%s@." (String.make 78 '-')

let mean xs =
  match xs with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let fig5 ppf (rows : Experiments.fig5_row list) =
  Format.fprintf ppf
    "Figure 5 — compression ratio, code segment only (fraction of baseline)@.";
  hr ppf;
  (match rows with
  | [] -> ()
  | first :: _ ->
      Format.fprintf ppf "%-10s" "bench";
      List.iter
        (fun (name, _) -> Format.fprintf ppf " %9s" name)
        first.Experiments.ratios;
      Format.fprintf ppf "@.";
      List.iter
        (fun (r : Experiments.fig5_row) ->
          Format.fprintf ppf "%-10s" r.Experiments.bench;
          List.iter
            (fun (_, v) -> Format.fprintf ppf " %9.3f" v)
            r.Experiments.ratios;
          Format.fprintf ppf "@.")
        rows;
      Format.fprintf ppf "%-10s" "mean";
      List.iteri
        (fun i _ ->
          let col =
            List.map (fun r -> snd (List.nth r.Experiments.ratios i)) rows
          in
          Format.fprintf ppf " %9.3f" (mean col))
        first.Experiments.ratios;
      Format.fprintf ppf "@.");
  hr ppf;
  Format.fprintf ppf
    "Paper: Full ~0.30, Tailored ~0.64, Byte ~0.72, Stream ~0.75 of original.@.@."

let fig7 ppf (rows : Experiments.fig7_row list) =
  Format.fprintf ppf
    "Figure 7 — total ROM size (code + tables + compressed ATT), bits@.";
  hr ppf;
  (match rows with
  | [] -> ()
  | first :: _ ->
      Format.fprintf ppf "%-10s %10s" "bench" "base";
      List.iter
        (fun (name, _, _) ->
          if name <> "base" then Format.fprintf ppf " %10s" name)
        first.Experiments.schemes_total;
      Format.fprintf ppf " %8s@." "atb-miss";
      List.iter
        (fun (r : Experiments.fig7_row) ->
          Format.fprintf ppf "%-10s %10d" r.Experiments.bench
            r.Experiments.base_bits;
          List.iter
            (fun (name, total, _) ->
              if name <> "base" then Format.fprintf ppf " %10d" total)
            r.Experiments.schemes_total;
          Format.fprintf ppf " %8.4f@." r.Experiments.atb_miss_rate)
        rows;
      Format.fprintf ppf "@.ATT overhead as a fraction of each code segment:@.";
      Format.fprintf ppf "%-10s" "bench";
      List.iter
        (fun (name, _, _) -> Format.fprintf ppf " %9s" name)
        first.Experiments.schemes_total;
      Format.fprintf ppf "@.";
      List.iter
        (fun (r : Experiments.fig7_row) ->
          Format.fprintf ppf "%-10s" r.Experiments.bench;
          List.iter
            (fun (_, _, ov) -> Format.fprintf ppf " %9.3f" ov)
            r.Experiments.schemes_total;
          Format.fprintf ppf "@.")
        rows);
  hr ppf;
  Format.fprintf ppf "Paper: the ATT adds ~15.5%% to the image size.@.@."

let fig10 ppf (rows : Experiments.fig10_row list) =
  Format.fprintf ppf
    "Figure 10 — Huffman decoder complexity (paper's transistor model)@.";
  hr ppf;
  (match rows with
  | [] -> ()
  | first :: _ ->
      Format.fprintf ppf "%-10s" "bench";
      List.iter
        (fun (name, _) -> Format.fprintf ppf " %12s" name)
        first.Experiments.decoders;
      Format.fprintf ppf "@.";
      List.iter
        (fun (r : Experiments.fig10_row) ->
          Format.fprintf ppf "%-10s" r.Experiments.bench;
          List.iter
            (fun (_, (d : Encoding.Scheme.decoder_info)) ->
              Format.fprintf ppf " %12d" d.Encoding.Scheme.transistors)
            r.Experiments.decoders;
          Format.fprintf ppf "@.")
        rows;
      Format.fprintf ppf "@.(k entries / n max code bits per scheme, first bench)@.";
      List.iter
        (fun (name, (d : Encoding.Scheme.decoder_info)) ->
          Format.fprintf ppf "  %-10s k=%5d n=%2d m=%2d@." name
            d.Encoding.Scheme.dict_entries d.Encoding.Scheme.max_code_bits
            d.Encoding.Scheme.entry_bits)
        first.Experiments.decoders);
  hr ppf;
  Format.fprintf ppf
    "Paper: Full largest by far; Byte smallest; Stream in between but large.@.@."

let fig13 ppf (rows : Experiments.fig13_row list) =
  Format.fprintf ppf
    "Figure 13 — cache study: operations delivered per cycle (6-issue)@.";
  hr ppf;
  Format.fprintf ppf "%-10s %8s %8s %10s %8s@." "bench" "ideal" "base"
    "compressed" "tailored";
  List.iter
    (fun (r : Experiments.fig13_row) ->
      Format.fprintf ppf "%-10s %8.3f %8.3f %10.3f %8.3f%s@."
        r.Experiments.bench r.Experiments.ideal.Fetch.Sim.ipc
        r.Experiments.base.Fetch.Sim.ipc r.Experiments.compressed.Fetch.Sim.ipc
        r.Experiments.tailored.Fetch.Sim.ipc
        (if
           r.Experiments.compressed.Fetch.Sim.ipc
           < r.Experiments.base.Fetch.Sim.ipc
         then "   (compressed < base)"
         else ""))
    rows;
  let avg f = mean (List.map f rows) in
  Format.fprintf ppf "%-10s %8.3f %8.3f %10.3f %8.3f@." "mean"
    (avg (fun r -> r.Experiments.ideal.Fetch.Sim.ipc))
    (avg (fun r -> r.Experiments.base.Fetch.Sim.ipc))
    (avg (fun r -> r.Experiments.compressed.Fetch.Sim.ipc))
    (avg (fun r -> r.Experiments.tailored.Fetch.Sim.ipc));
  hr ppf;
  Format.fprintf ppf
    "Paper: Compressed and Tailored both exceed Base on average; Compressed@.\
     loses on compress, go, ijpeg, m88ksim (misprediction penalty of the@.\
     added decompressor stage).@.@."

let fig14 ppf (rows : Experiments.fig14_row list) =
  Format.fprintf ppf "Figure 14 — memory bus bit flips (power proxy)@.";
  hr ppf;
  (match rows with
  | [] -> ()
  | first :: _ ->
      Format.fprintf ppf "%-10s" "bench";
      List.iter
        (fun (name, _) -> Format.fprintf ppf " %12s" name)
        first.Experiments.flips;
      Format.fprintf ppf "@.";
      List.iter
        (fun (r : Experiments.fig14_row) ->
          Format.fprintf ppf "%-10s" r.Experiments.bench;
          List.iter (fun (_, f) -> Format.fprintf ppf " %12d" f) r.Experiments.flips;
          Format.fprintf ppf "@.")
        rows);
  hr ppf;
  Format.fprintf ppf
    "Paper: flips track the degree of compression — savings for Tailored@.\
     and (larger) for Compressed over Base.@.@."

let ablation ppf (rows : Experiments.ablation_row list) =
  Format.fprintf ppf
    "Ablation — decompress at hit time (paper) vs at miss time (CodePack)@.";
  hr ppf;
  Format.fprintf ppf "%-10s %10s %10s %12s@." "bench" "hit-time" "miss-time"
    "(ipc ratio)";
  List.iter
    (fun (r : Experiments.ablation_row) ->
      Format.fprintf ppf "%-10s %10.3f %10.3f %12.3f@." r.Experiments.bench
        r.Experiments.hit_time.Fetch.Sim.ipc r.Experiments.miss_time.Fetch.Sim.ipc
        (r.Experiments.hit_time.Fetch.Sim.ipc
        /. r.Experiments.miss_time.Fetch.Sim.ipc))
    rows;
  hr ppf;
  Format.fprintf ppf
    "Caching compressed code multiplies capacity; decompress-at-miss keeps@.\
     only the bus-traffic benefit (the paper\'s critique of CodePack).@.@."

let predictors ppf (rows : Experiments.predictor_row list) =
  Format.fprintf ppf
    "Extension — 2-bit ATB predictor vs gshare(12) (compressed model)@.";
  hr ppf;
  Format.fprintf ppf "%-10s %10s %10s %12s %12s@." "bench" "2bit-ipc"
    "gshare-ipc" "2bit-mispr" "gshare-mispr";
  List.iter
    (fun (r : Experiments.predictor_row) ->
      let rate (x : Fetch.Sim.result) =
        float_of_int x.Fetch.Sim.mispredicts
        /. float_of_int (max 1 x.Fetch.Sim.block_visits)
      in
      Format.fprintf ppf "%-10s %10.3f %10.3f %12.4f %12.4f@."
        r.Experiments.bench r.Experiments.two_bit.Fetch.Sim.ipc
        r.Experiments.gshare.Fetch.Sim.ipc
        (rate r.Experiments.two_bit)
        (rate r.Experiments.gshare))
    rows;
  hr ppf;
  Format.fprintf ppf
    "The paper names better prediction as future work: it shrinks exactly@.\
     the penalty that makes Compressed lose on the branchy benchmarks.@.@."

let superblocks ppf (rows : Experiments.superblock_row list) =
  Format.fprintf ppf
    "Extension — superblock fetch units vs basic blocks@.";
  hr ppf;
  Format.fprintf ppf "%-10s %8s %10s %10s %12s %12s@." "bench" "blk/unit"
    "base-bb" "base-sb" "comp-bb" "comp-sb";
  List.iter
    (fun (r : Experiments.superblock_row) ->
      Format.fprintf ppf "%-10s %8.2f %10.3f %10.3f %12.3f %12.3f@."
        r.Experiments.bench r.Experiments.mean_unit_blocks
        r.Experiments.bb_base.Fetch.Sim.ipc r.Experiments.sb_base.Fetch.Sim.ipc
        r.Experiments.bb_compressed.Fetch.Sim.ipc
        r.Experiments.sb_compressed.Fetch.Sim.ipc)
    rows;
  hr ppf;
  Format.fprintf ppf
    "Larger fetch units mean fewer prediction points and longer streaming@.\
     runs, against whole-unit miss repair — the trade the paper sketches@.\
     in section 3.1.@.@."

let faults ppf (t : Faults.t) =
  Format.fprintf ppf
    "Fault campaign — bench=%s seed=%d flips=%d per surface retries=%d \
     protection=%s@."
    t.Faults.spec.Faults.bench t.Faults.spec.Faults.seed
    t.Faults.spec.Faults.flips t.Faults.spec.Faults.retries
    (Encoding.Scheme.protection_name t.Faults.spec.Faults.protection);
  hr ppf;
  Format.fprintf ppf "%-10s %7s %7s %8s %8s %8s %5s %4s %8s %8s@." "scheme"
    "ratio" "ovh%" "rom-cov" "tbl-cov" "cch-cov" "sdc" "mc" "rec-cyc" "cyc-ovh%";
  List.iter
    (fun (r : Faults.scheme_report) ->
      let cyc_ovh =
        if r.Faults.clean_cycles = 0 then 0.
        else
          100.
          *. float_of_int (r.Faults.faulty_cycles - r.Faults.clean_cycles)
          /. float_of_int r.Faults.clean_cycles
      in
      Format.fprintf ppf "%-10s %7.3f %7.2f %8.3f %8.3f %8.3f %5d %4d %8d %8.2f@."
        r.Faults.scheme r.Faults.ratio
        (100. *. r.Faults.protection_overhead)
        (Faults.coverage r.Faults.rom)
        (Faults.coverage r.Faults.table)
        (Faults.coverage r.Faults.cache)
        (Faults.silent_total r)
        r.Faults.cache.Faults.machine_checks
        r.Faults.cache.Faults.recovery_cycles cyc_ovh)
    t.Faults.rows;
  hr ppf;
  Format.fprintf ppf
    "cov = detected/(detected+silent) per surface; sdc = silent corruptions@.\
     summed over surfaces; rec-cyc = cycles spent refetching after detection.@.\
     CRC framing must drive sdc to 0 — single-bit errors are in every CRC\'s@.\
     detected class — at the ovh%% cost in compression ratio.@.@."

(* One program's row of every table but Figure 14, which is read off
   Figure 13's. *)
type rows = {
  r5 : Experiments.fig5_row;
  r7 : Experiments.fig7_row;
  r10 : Experiments.fig10_row;
  r13 : Experiments.fig13_row;
  ra : Experiments.ablation_row;
  rp : Experiments.predictor_row;
  rs : Experiments.superblock_row;
}

(* One sweep: each task computes all of its program's rows, so a worker
   loads, encodes and replays its programs once. *)
let all ppf () =
  let rows =
    Experiments.(
      sweep (fun r ->
          {
            r5 = fig5_for r;
            r7 = fig7_for r;
            r10 = fig10_for r;
            r13 = fig13_for r;
            ra = ablation_for r;
            rp = predictors_for r;
            rs = superblocks_for r;
          }))
  in
  let col f = List.map f rows in
  fig5 ppf (col (fun r -> r.r5));
  fig7 ppf (col (fun r -> r.r7));
  fig10 ppf (col (fun r -> r.r10));
  fig13 ppf (col (fun r -> r.r13));
  fig14 ppf (col (fun r -> Experiments.fig14_of r.r13));
  ablation ppf (col (fun r -> r.ra));
  predictors ppf (col (fun r -> r.rp));
  superblocks ppf (col (fun r -> r.rs))

(* One line per scheme of one workload: the static bound, the simulated
   replay, the bound/simulated ratio and the classification census. *)
let wcet ppf rows =
  List.iter
    (fun (workload, ws) ->
      Format.fprintf ppf "%s — static WCET vs Fetch.Sim replay@." workload;
      hr ppf;
      Format.fprintf ppf "%-10s %-10s %10s %10s %7s %5s %5s %5s %5s@."
        "scheme" "model" "bound" "simulated" "ratio" "hit" "miss" "uncl"
        "atb+";
      List.iter
        (fun (w : Cccs_analysis.Timing_check.wcet) ->
          Format.fprintf ppf "%-10s %-10s %10d %10s %7s %5d %5d %5d %5d@."
            w.Cccs_analysis.Timing_check.scheme
            (Fetch.Sim.model_name w.Cccs_analysis.Timing_check.model)
            w.Cccs_analysis.Timing_check.bound
            (match w.Cccs_analysis.Timing_check.sim_cycles with
            | Some c -> string_of_int c
            | None -> "-")
            (match w.Cccs_analysis.Timing_check.ratio with
            | Some r -> Printf.sprintf "%.2f" r
            | None -> "-")
            w.Cccs_analysis.Timing_check.always_hit
            w.Cccs_analysis.Timing_check.always_miss
            w.Cccs_analysis.Timing_check.unclassified
            w.Cccs_analysis.Timing_check.atb_always_hit)
        ws;
      hr ppf)
    rows
