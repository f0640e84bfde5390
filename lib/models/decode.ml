(** One autoregressive transformer decode step with a KV cache.

    The serving workload the batch-parametric plan tables exist for: at
    each generation step every sequence contributes a single new token,
    so the step is a batch of rank-[1] queries attending over cached
    keys/values plus the step's own projection — heavily memory-bound at
    small batch, shifting toward compute-bound as the batch grows, which
    is exactly the regime where greedy fusion and optimal orchestration
    pick different plans at different batches.

    Graph inputs:
    - ["hidden"]  : [B x 1 x D] — the step's input hidden states;
    - ["past_k"], ["past_v"] : [B x H x L x Dh] — the KV cache;
    - ["len_mask"] : [B x 1 x 1 x (L+1)] — additive attention mask, [0]
      at valid key positions and a large negative value at padded ones.

    Ragged batches use the mask convention: sequences of unequal length
    share the padded cache tensors, and each sequence's [len_mask] row
    disables its padding positions (the same convention
    {!Blocks.softmax_attention} documents). The causal structure of
    decode is implicit — the single query row may attend to every cached
    position plus itself, so no triangular mask is needed.

    Outputs: the post-MLP hidden states [B x 1 x D] {e and} the appended
    caches [new_k]/[new_v] ([B x H x (L+1) x Dh]) — a decoder must
    publish the appended cache for the next step, which also keeps the
    Concat append live in the optimized graph. *)

open Ir

(** [build ~batch ~heads ~head_dim ~past_len ~mlp_ratio ()] — one decode
    step. [past_len] is the cache length [L] {e before} this step. *)
let build ?(batch = 1) ~heads ~head_dim ~past_len ~mlp_ratio () : Opgraph.t =
  if batch <= 0 then invalid_arg "Decode.build: batch must be >= 1";
  if past_len < 1 then invalid_arg "Decode.build: past_len must be >= 1";
  let d = heads * head_dim in
  let ctx = Blocks.create () in
  let b = ctx.Blocks.b in
  let hidden = Opgraph.B.input b "hidden" [| batch; 1; d |] in
  let past_k = Opgraph.B.input b "past_k" [| batch; heads; past_len; head_dim |] in
  let past_v = Opgraph.B.input b "past_v" [| batch; heads; past_len; head_dim |] in
  let len_mask = Opgraph.B.input b "len_mask" [| batch; 1; 1; past_len + 1 |] in
  (* Pre-norm attention: QKV projection of the single new token. *)
  let x = Blocks.layer_norm ctx hidden in
  let to_heads t =
    (* [B x 1 x D] -> [B x H x 1 x Dh] *)
    let r = Opgraph.B.add b (Optype.Reshape [| batch; 1; heads; head_dim |]) [ t ] in
    Opgraph.B.add b (Optype.Transpose [| 0; 2; 1; 3 |]) [ r ]
  in
  let q = to_heads (Blocks.linear ctx x ~out_f:d) in
  let k = to_heads (Blocks.linear ctx x ~out_f:d) in
  let v = to_heads (Blocks.linear ctx x ~out_f:d) in
  (* KV-cache append: concat along the sequence axis. *)
  let new_k = Opgraph.B.add b (Optype.Concat 2) [ past_k; k ] in
  let new_v = Opgraph.B.add b (Optype.Concat 2) [ past_v; v ] in
  (* Masked attention over the appended cache; the mask broadcasts over
     heads and the single query row. *)
  let attn = Blocks.softmax_attention ctx ~mask:len_mask q new_k new_v in
  (* [B x H x 1 x Dh] -> [B x 1 x D], output projection, residual. *)
  let merged = Opgraph.B.add b (Optype.Transpose [| 0; 2; 1; 3 |]) [ attn ] in
  let merged = Opgraph.B.add b (Optype.Reshape [| batch; 1; d |]) [ merged ] in
  let proj = Blocks.linear ctx merged ~out_f:d in
  let res1 = Opgraph.B.add b Optype.Add [ hidden; proj ] in
  (* Pre-norm MLP. *)
  let y = Blocks.layer_norm ctx res1 in
  let up = Blocks.linear ctx y ~out_f:(mlp_ratio * d) in
  let act = Opgraph.B.add b Optype.Gelu [ up ] in
  let down = Blocks.linear ctx act ~out_f:d in
  let out = Opgraph.B.add b Optype.Add [ res1; down ] in
  Opgraph.B.set_outputs b [ out; new_k; new_v ];
  Opgraph.B.finish b
