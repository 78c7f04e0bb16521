type block = {
  id : int;
  mops : Mop.t list;
}

type t = {
  name : string;
  entry : int;
  blocks : block array;
}

let block_ops b = List.concat_map Mop.ops b.mops
let block_num_ops b = List.fold_left (fun a m -> a + Mop.size m) 0 b.mops
let block_num_mops b = List.length b.mops

let terminator b =
  match List.rev b.mops with
  | [] -> None
  | last :: _ -> Mop.branch last

let make ~name ?(entry = 0) blocks =
  let blocks = Array.of_list blocks in
  let n = Array.length blocks in
  if n = 0 then invalid_arg "Program.make: no blocks";
  if entry < 0 || entry >= n then invalid_arg "Program.make: bad entry";
  Array.iteri
    (fun i b ->
      if b.id <> i then invalid_arg "Program.make: block id out of order";
      if b.mops = [] then invalid_arg "Program.make: empty block";
      let mops = Array.of_list b.mops in
      Array.iteri
        (fun j m ->
          if Mop.has_branch m && j <> Array.length mops - 1 then
            invalid_arg "Program.make: branch not in last MOP")
        mops;
      match terminator b with
      | None -> ()
      | Some br -> (
          match Op.branch_target br with
          | None -> ()
          | Some tgt ->
              if tgt < 0 || tgt >= n then
                invalid_arg
                  (Printf.sprintf "Program.make: block %d branches to %d" i tgt)))
    blocks;
  { name; entry; blocks }

let num_blocks t = Array.length t.blocks

let block t id =
  if id < 0 || id >= num_blocks t then invalid_arg "Program.block";
  t.blocks.(id)

let successors t id =
  let b = block t id in
  let fall = if id + 1 < num_blocks t then [ id + 1 ] else [] in
  match terminator b with
  | None -> fall
  | Some br -> (
      match (Op.opcode br, Op.branch_target br) with
      | Opcode.BR, Some tgt -> [ tgt ]
      | Opcode.RET, _ -> []
      | Opcode.BRL, Some tgt ->
          (* Calls transfer to the target; the return continues at fall
             through, so both are possible next blocks. *)
          tgt :: fall
      | _, Some tgt -> tgt :: fall
      | _, None -> fall)

let all_ops t =
  Array.to_list t.blocks |> List.concat_map block_ops

let num_ops t = Array.fold_left (fun a b -> a + block_num_ops b) 0 t.blocks
let num_mops t = Array.fold_left (fun a b -> a + block_num_mops b) 0 t.blocks

let iter_ops f t =
  Array.iter (fun b -> List.iter f (block_ops b)) t.blocks

let map_ops f t =
  let blocks =
    Array.map (fun b -> { b with mops = List.map (Mop.map f) b.mops }) t.blocks
  in
  { t with blocks }

let words t =
  Array.map (fun b -> Array.of_list (List.map Encode.to_int (block_ops b))) t.blocks

let baseline_image t = Encode.encode_ops (all_ops t)
let baseline_size_bytes t = Format_spec.op_bytes * num_ops t

let block_addresses t =
  let n = num_blocks t in
  let addrs = Array.make n 0 in
  let addr = ref 0 in
  for i = 0 to n - 1 do
    addrs.(i) <- !addr;
    addr := !addr + (Format_spec.op_bytes * block_num_ops t.blocks.(i))
  done;
  addrs

let pp ppf t =
  Format.fprintf ppf "program %s (%d blocks, %d ops)@." t.name (num_blocks t)
    (num_ops t);
  Array.iter
    (fun b ->
      Format.fprintf ppf "bb%d:@." b.id;
      List.iter (fun m -> Format.fprintf ppf "  %a@." Mop.pp m) b.mops)
    t.blocks
